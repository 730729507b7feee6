(* Benchmark harness: regenerates every experiment of DESIGN.md's
   per-experiment index. The paper (PODC 2014) is a theory paper with no
   measurement tables, so each "experiment" reproduces the shape of a
   theorem: who wins, by what order of growth, and where the frontier
   lies. Sections print machine-checkable tables; a final Bechamel pass
   times the main moving parts. *)

module LB = Ld_core.Lower_bound
module Pool = Ld_pool.Pool
module Obs = Ld_obs.Obs
module Json = Ld_obs.Json
module Provenance = Ld_obs.Provenance
module Trace = Ld_obs.Trace
module Theorem = Ld_core.Theorem
module Sim = Ld_core.Simulate
module Packing = Ld_matching.Packing
module Po_packing = Ld_matching.Po_packing
module Mm_ec = Ld_matching.Mm_ec
module II = Ld_matching.Israeli_itai
module Packed_pr = Ld_matching.Packed_pr
module Fm = Ld_fm.Fm
module Maximum = Ld_fm.Maximum
module Greedy = Ld_fm.Greedy
module Ec = Ld_models.Ec
module Id = Ld_models.Labelled.Id
module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Gen = Ld_graph.Generators
module Q = Ld_arith.Q
module Colouring = Ld_models.Edge_colouring

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf fmt

(* One clock for everything: sections are [bench.section.*] spans on the
   Ld_obs monotonic clock, so the JSON section timings and the Chrome
   trace agree by construction.

   Each section additionally meters itself: counters are snapshot-diffed
   around the body (the global counters stay cumulative — the top-level
   "metrics" object and the CI guards reading it are untouched), and
   latency histograms are reset at section entry so the quantiles a
   section reports are its own, not the tail of the section before. *)
type section_stats = {
  s_name : string;
  s_wall_ms : float;
  s_counters : (string * int) list; (* increments during the section *)
  s_latency : Ld_obs.Hist.snapshot list;
}

let section_log : section_stats list ref = ref []

let now_ms = Obs.now_ms

(* [f ()] with its wall time and the counter increments it made. Only
   exact when nothing else runs meanwhile: the counters are global. *)
let metered f =
  let before = Obs.Counter.snapshot_all () in
  let t0 = now_ms () in
  let v = f () in
  let wall = now_ms () -. t0 in
  (v, wall, Obs.Counter.diff before (Obs.Counter.snapshot_all ()))

let timed name f =
  Ld_obs.Hist.reset_all ();
  let v, wall, counters = metered (fun () -> Obs.with_span ("bench.section." ^ name) f) in
  section_log :=
    {
      s_name = name;
      s_wall_ms = wall;
      s_counters = counters;
      s_latency = Ld_obs.Hist.snapshots ();
    }
    :: !section_log;
  v

(* ------------------------------------------------------------------ *)
(* THM1: the lower-bound frontier. For each Δ, the adversary certifies
   levels 0..Δ-2 against the real O(Δ) algorithm, while r-round
   truncations are refuted — max certified level = min(r-2, Δ-2).

   The rows run one Δ after another on the calling domain, so a row's
   wall time and counters are its own: build the memo cache (one full
   adversary run against the greedy), then replay the cached
   construction against every truncation instead of rebuilding Θ(Δ)
   constructions per scan. *)

type thm1_row = {
  t_delta : int;
  t_levels : int;
  t_frontier : int;
  t_wall_ms : float;
  t_refine_rounds : int;
  t_descriptors : int;
  t_cache : LB.cache option;
}

(* Only COST (cost_delta) and LOCALITY (deltas 3..7) replay a row's
   cache after the THM1 table; every other cache is dropped as soon as
   its row is done. The large-delta caches dominate the live heap
   (Δ=20 alone holds hundreds of MB of probe outputs), and retaining
   all of them poisons every later section with major-GC pressure. *)
let keep_cache delta = (delta >= 3 && delta <= 7) || delta = 12

let thm1_row ~store delta =
  let (cache, levels, frontier), wall, counters =
    metered @@ fun () ->
    (* With --store, a populated store turns this into pure I/O: the
       construction is reassembled from its per-level records and no
       adversary runs (store.hits counts the records read). *)
    let cache = Ld_core.Cache_store.build_cache ?store ~delta Packing.greedy_algorithm in
    let levels =
      match LB.cache_outcome cache with
      | LB.Certified certs -> List.length certs
      | LB.Refuted _ -> -1
    in
    (* smallest truncation that survives the adversary; the verdict is
       analytic (colour-prefix thresholds) — no probe is re-run and no
       failure witness is materialised *)
    let rec scan r =
      if r > (2 * delta) + 2 then -1
      else
        match LB.truncated_verdict cache ~rounds:r with
        | `Certified -> r
        | `Refuted -> scan (r + 1)
    in
    (cache, levels, scan 0)
  in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  {
    t_delta = delta;
    t_levels = levels;
    t_frontier = frontier;
    t_wall_ms = wall;
    t_refine_rounds = count "cover.refine.rounds";
    t_descriptors =
      count "cover.refine.intern_hits" + count "cover.refine.intern_misses";
    t_cache = (if keep_cache delta then Some cache else None);
  }

let thm1 ~store ~deltas ~mm_deltas () =
  section "THM1  lower bound vs upper bound (Theorem 1)";
  row "  %-6s %-18s %-22s %-16s\n" "delta" "certified levels" "greedy rounds (upper)"
    "frontier r*";
  let rows = List.map (thm1_row ~store) deltas in
  List.iter
    (fun r ->
      (* upper bound: communication rounds of the greedy on its own
         adversary instances = number of colours = delta *)
      let upper = r.t_delta in
      row "  %-6d %-18d %-22d %-16d\n" r.t_delta r.t_levels upper r.t_frontier)
    rows;
  row "  shape: certified = delta-1 levels (0..delta-2); frontier r* = delta;\n";
  row "  both sides linear in delta — the o(delta) regime is empty.\n";
  row "\n  the same adversary vs the greedy MAXIMAL MATCHING (cf. [13]):\n";
  let mm_outcomes =
    List.map (fun delta -> (delta, LB.run ~delta (Mm_ec.as_packing_algorithm ()))) mm_deltas
  in
  List.iter
    (fun (delta, outcome) ->
      match outcome with
      | LB.Certified certs ->
        row "    delta=%-3d certified %d levels — greedy matching is also Ω(delta)\n"
          delta (List.length certs)
      | LB.Refuted (_, f) ->
        row "    delta=%-3d REFUTED at %d (unexpected)\n" delta f.LB.fail_level)
    mm_outcomes;
  rows

(* ------------------------------------------------------------------ *)
(* UPPER: rounds of the O(Δ) algorithms vs Δ across graph families. *)

let upper ?(deltas = [ 4; 8; 16; 32 ]) () =
  section "UPPER  rounds of maximal edge packing vs delta";
  row "  %-14s %-7s %-4s %-4s %-14s %-16s\n" "family" "n" "dlt" "k" "greedy rounds"
    "proposal rounds";
  List.iter
    (fun delta ->
      List.iter
        (fun (name, make) ->
          let g = make ~seed:42 ~n:60 ~delta in
          let ec = Colouring.ec_of_simple g in
          let k = Packing.greedy_rounds ec in
          let y = Packing.greedy_by_colour ec in
          let yp, rp = Packing.proposal ec in
          assert (Fm.is_maximal_fm y && Fm.is_maximal_fm yp);
          row "  %-14s %-7d %-4d %-4d %-14d %-16d\n" name (G.n g)
            (G.max_degree g) k k rp)
        [
          ("star", fun ~seed:_ ~n:_ ~delta -> Gen.star delta);
          ("spider", fun ~seed:_ ~n:_ ~delta -> Gen.spider ~delta ~tail:3);
          ( "caterpillar",
            fun ~seed:_ ~n:_ ~delta ->
              Gen.caterpillar ~spine:8 ~legs:(max 1 (delta - 2)) );
          ( "bounded-gnp",
            fun ~seed ~n ~delta -> Gen.random_bounded_degree ~seed n delta );
        ])
    deltas;
  row "  shape: greedy rounds = k <= 2*delta - 1 (exactly the colour count);\n";
  row "  proposal rounds stay within a small multiple of delta.\n"

(* ------------------------------------------------------------------ *)
(* COST: adversary instance growth per level (the 2^i unfolding). *)

(* The construction for [cost_delta] was already built (and memoised)
   by its THM1 row; reuse its outcome instead of a fresh run. *)
let cost ~rows ~cost_delta () =
  section (Printf.sprintf "COST  adversary construction growth (delta = %d)" cost_delta);
  let outcome =
    match List.find_opt (fun r -> r.t_delta = cost_delta) rows with
    | Some { t_cache = Some cache; _ } -> LB.cache_outcome cache
    | Some { t_cache = None; _ } | None ->
      LB.run ~delta:cost_delta Packing.greedy_algorithm
  in
  (match outcome with
  | LB.Certified certs ->
    row "  %-7s %-10s %-10s %-10s %-8s\n" "level" "|G_i|" "|H_i|" "loops(G_i)"
      "colour";
    List.iter
      (fun (c : LB.certificate) ->
        let g = LB.force c.g_graph in
        row "  %-7d %-10d %-10d %-10d %-8d\n" c.level (Ec.n g)
          (Ec.n (LB.force c.h_graph))
          (Ec.num_loops g) c.colour)
      certs
  | LB.Refuted _ -> row "  unexpected refutation\n");
  row "  shape: |G_i| = 2^i — the price of each unfold-and-mix level.\n"

(* ------------------------------------------------------------------ *)
(* APPROX: maximal FM is a 1/2-approximation of maximum weight (§1.2). *)

let approx () =
  section "APPROX  maximal FM weight vs maximum weight (>= 1/2)";
  row "  %-14s %-6s %-5s %-12s %-12s %-8s\n" "family" "n" "dlt" "maximal" "maximum"
    "ratio";
  let families =
    [
      ("path", Gen.path 40);
      ("cycle", Gen.cycle 41);
      ("star", Gen.star 20);
      ("complete", Gen.complete 9);
      ("k5,9", Gen.complete_bipartite 5 9);
      ("grid", Gen.grid 6 7);
      ("hypercube", Gen.hypercube 5);
      ("spider", Gen.spider ~delta:8 ~tail:3);
      ("random d4", Gen.random_bounded_degree ~seed:11 40 4);
      ("random tree", Gen.random_tree ~seed:3 40);
    ]
  in
  List.iter
    (fun (name, g) ->
      let ec = Colouring.ec_of_simple g in
      let y = Packing.greedy_by_colour ec in
      let ratio = Maximum.ratio y in
      assert (Q.compare ratio Q.half >= 0);
      row "  %-14s %-6d %-5d %-12s %-12s %-8s\n" name (G.n g) (G.max_degree g)
        (Q.to_string (Fm.total y))
        (Q.to_string (Maximum.value g))
        (Q.to_string ratio))
    families;
  row "  shape: every ratio >= 1/2, often well above; never below.\n"

(* ------------------------------------------------------------------ *)
(* VC: the vertex-cover application of [3]/[4] — saturated nodes of a
   maximal edge packing 2-approximate the minimum vertex cover. *)

let vc () =
  section "VC  vertex cover from edge packing (2-approximation, [3]/[4])";
  row "  %-14s %-6s %-8s %-8s %-8s\n" "family" "n" "|cover|" "opt" "ratio";
  List.iter
    (fun (name, g) ->
      let ec = Colouring.ec_of_simple g in
      let y = Packing.greedy_by_colour ec in
      let cover = Ld_fm.Vertex_cover.of_fm y in
      assert (Ld_fm.Vertex_cover.is_vertex_cover ec cover);
      let opt = Ld_fm.Vertex_cover.minimum_size g in
      let ratio = Ld_fm.Vertex_cover.approximation_ratio y in
      assert (Q.compare ratio (Q.of_int 2) <= 0);
      row "  %-14s %-6d %-8d %-8d %-8s\n" name (G.n g) (List.length cover) opt
        (Q.to_string ratio))
    [
      ("path", Gen.path 15);
      ("cycle", Gen.cycle 15);
      ("star", Gen.star 10);
      ("complete", Gen.complete 7);
      ("grid", Gen.grid 3 5);
      ("spider", Gen.spider ~delta:6 ~tail:2);
      ("random d3", Gen.random_bounded_degree ~seed:21 16 3);
      ("random tree", Gen.random_tree ~seed:9 16);
    ];
  row "  shape: every cover valid, every ratio <= 2 — so Theorem 1 also\n";
  row "  lower-bounds the canonical distributed 2-approx of vertex cover.\n"

(* ------------------------------------------------------------------ *)
(* BASE: the §1.1 baselines — randomised O(log n) and deterministic
   O(Δ + log* n) maximal matching. *)

let base () =
  section "BASE  maximal matching baselines (§1.1)";
  row "  Israeli-Itai (randomised): rounds vs n at delta=4\n";
  row "  %-8s %-8s\n" "n" "rounds";
  List.iter
    (fun n ->
      let g = Gen.random_bounded_degree ~seed:(n + 3) n 4 in
      let r = II.run ~seed:5 ~max_rounds:10000 (Id.trivial g) in
      assert (II.is_maximal g r);
      row "  %-8d %-8d\n" n r.II.rounds)
    [ 16; 64; 256; 1024; 4096 ];
  row "  shape: rounds grow ~ log n (each x4 in n adds a few rounds).\n\n";
  row "  Panconesi-Rizzi (deterministic): rounds vs delta (n=60) and vs n (delta=4)\n";
  row "  %-10s %-8s %-8s %-8s\n" "delta" "n" "rounds" "cv iters";
  let pr_row n g =
    let csr = Csr.greedy g in
    let r, _ = Packed_pr.run csr in
    assert (Packed_pr.is_maximal csr r);
    row "  %-10d %-8d %-8d %-8d\n" (G.max_degree g) n r.Packed_pr.rounds
      r.Packed_pr.cv_iterations
  in
  List.iter
    (fun delta -> pr_row 60 (Gen.random_bounded_degree ~seed:7 60 delta))
    [ 2; 4; 8; 16; 24 ];
  List.iter
    (fun n -> pr_row n (Gen.random_bounded_degree ~seed:8 n 4))
    [ 16; 256; 4096 ];
  row "  shape: linear in delta, almost flat in n (log* through CV iters).\n\n";
  row "  EC greedy matching (§2.1: trivial in EC): rounds = colours\n";
  row "  %-10s %-8s %-8s\n" "delta" "rounds" "maximal";
  List.iter
    (fun delta ->
      let ec = Colouring.ec_of_simple (Gen.spider ~delta ~tail:3) in
      let r = Mm_ec.greedy ec in
      row "  %-10d %-8d %-8b\n" delta r.Mm_ec.rounds (Mm_ec.is_maximal ec r))
    [ 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* SIM: the Section 5 chain measured end to end. *)

let sim () =
  section "SIM  simulation chain EC <= PO <= OI (Section 5)";
  row "  adversary vs PO proposal through EC<=PO (Fig. 8):\n";
  List.iter
    (fun delta ->
      match Theorem.against_po ~delta Po_packing.proposal_algorithm with
      | LB.Certified certs ->
        row "    delta=%-3d certified %d levels\n" delta (List.length certs)
      | LB.Refuted (_, f) ->
        row "    delta=%-3d REFUTED at level %d (unexpected)\n" delta
          f.LB.fail_level)
    [ 3; 4; 5; 6 ];
  row "  adversary vs small-radius OI rules through PO<=OI (Fig. 9):\n";
  List.iter
    (fun rounds ->
      match Theorem.against_oi ~delta:4 (Sim.proposal_rule ~rounds) with
      | LB.Certified certs ->
        row "    oi-rule radius %d: certified %d levels\n" (rounds + 1)
          (List.length certs)
      | LB.Refuted (_, f) ->
        row "    oi-rule radius %d: refuted at level %d (fast => wrong)\n"
          (rounds + 1) f.LB.fail_level)
    [ 0; 1; 2 ];
  row "  simulated OI proposal rule == direct truncated run:\n";
  let g = Ld_models.Po.of_ec (Colouring.ec_of_simple (Gen.spider ~delta:4 ~tail:2)) in
  List.iter
    (fun rounds ->
      let direct, _ = Po_packing.proposal ~truncate:rounds g in
      let simulated = (Sim.po_of_oi (Sim.proposal_rule ~rounds)).Po_packing.run g in
      row "    rounds=%d exact match: %b\n" rounds
        (Ld_fm.Po_fm.equal direct simulated))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* CONTRAST (§1.2): approximation is Θ(log Δ), maximality is Θ(Δ) —
   the gap Theorem 1 establishes, side by side. *)

let contrast () =
  section "CONTRAST  approximate vs maximal fractional matching (§1.2)";
  row "  %-6s %-16s %-16s %-14s\n" "delta" "approx rounds" "maximal rounds"
    "approx ratio";
  List.iter
    (fun delta ->
      let ec = Colouring.ec_of_simple (Gen.spider ~delta ~tail:2) in
      let y, r_approx = Ld_matching.Approx_packing.run ~delta ec in
      assert (Fm.is_fm y);
      let ratio = Maximum.ratio y in
      assert (Q.compare ratio (Q.of_ints 1 4) >= 0);
      row "  %-6d %-16d %-16d %-14s\n" delta r_approx
        (Packing.greedy_rounds ec) (Q.to_string ratio))
    [ 4; 8; 16; 32; 64; 128 ];
  row "  shape: constant-factor approximation needs ~log2(delta)+1 rounds,\n";
  row "  maximality needs delta — the exponential gap Theorem 1 certifies.\n"

(* ------------------------------------------------------------------ *)
(* LOCALITY: Definition (1) measured on the adversary's own probes. *)

let locality ~rows ~deltas () =
  section "LOCALITY  empirical run-time (Definition (1)) on adversary probes";
  row "  %-6s %-22s %-14s\n" "delta" "measured locality" "forced above";
  let outcome_for delta =
    match List.find_opt (fun r -> r.t_delta = delta) rows with
    | Some { t_cache = Some cache; _ } -> LB.cache_outcome cache
    | Some { t_cache = None; _ } | None ->
      LB.run ~delta Packing.greedy_algorithm
  in
  List.iter
    (fun delta ->
      match outcome_for delta with
      | LB.Refuted _ -> row "  unexpected refutation\n"
      | LB.Certified certs ->
        let probes = Ld_core.Locality.probes_of_certificates certs in
        (match
           Ld_core.Locality.empirical_locality ~max_radius:(delta + 2)
             Packing.greedy_algorithm probes
         with
        | Some t ->
          assert (t > delta - 2);
          row "  %-6d %-22d %-14d\n" delta t (delta - 2)
        | None -> row "  %-6d (none within delta+2)\n" delta))
    deltas;
  row "  shape: the certificates force the measured locality above delta-2\n";
  row "  at every delta — Definition (1), observed rather than assumed.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel timings for the moving parts. *)

let bechamel_pass () =
  section "TIMING  Bechamel micro-benchmarks";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"adversary delta=8 (greedy)"
        (Staged.stage (fun () ->
             ignore (LB.run ~check_views:false ~delta:8 Packing.greedy_algorithm)));
      Test.make ~name:"adversary delta=8 (+view checks)"
        (Staged.stage (fun () ->
             ignore (LB.run ~check_views:true ~delta:8 Packing.greedy_algorithm)));
      Test.make ~name:"greedy packing, spider delta=16"
        (Staged.stage
           (let ec = Colouring.ec_of_simple (Gen.spider ~delta:16 ~tail:3) in
            fun () -> ignore (Packing.greedy_by_colour ec)));
      Test.make ~name:"proposal packing, spider delta=16"
        (Staged.stage
           (let ec = Colouring.ec_of_simple (Gen.spider ~delta:16 ~tail:3) in
            fun () -> ignore (Packing.proposal ec)));
      Test.make ~name:"refinement radius=10, n=2048"
        (Staged.stage
           (let tree = Gen.random_tree ~seed:1 2048 in
            let ec = Colouring.ec_of_simple tree in
            fun () -> ignore (Ld_cover.Refinement.refine_ec ec ~rounds:10)));
      Test.make ~name:"panconesi-rizzi n=256 delta=4"
        (Staged.stage
           (let g = Gen.random_bounded_degree ~seed:2 256 4 in
            let csr = Csr.greedy g in
            fun () -> ignore (Packed_pr.run csr)));
      Test.make ~name:"israeli-itai n=256 delta=4"
        (Staged.stage
           (let g = Gen.random_bounded_degree ~seed:2 256 4 in
            let idg = Id.trivial g in
            fun () -> ignore (II.run ~seed:3 ~max_rounds:10000 idg)));
      Test.make ~name:"maximum FM (hopcroft-karp) n=512"
        (Staged.stage
           (let g = Gen.random_bounded_degree ~seed:4 512 6 in
            fun () -> ignore (Maximum.value g)));
    ]
  in
  let grouped = Test.make_grouped ~name:"linear-delta" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let collected = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ t ] ->
        row "  %-42s %12.0f ns/run\n" name t;
        collected := (name, t) :: !collected
      | _ -> row "  %-42s (no estimate)\n" name)
    results;
  (* Benchmark names are unique Hashtbl keys, so ordering by name is total. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) !collected

(* ------------------------------------------------------------------ *)
(* Machine-readable dump of the headline experiment: one object per
   THM1 row, the per-section wall clocks, and the Bechamel estimates. *)

let emit_json ~path ~rows ~timings =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  let row r =
    Json.Obj
      [
        ("delta", Json.int r.t_delta);
        ("certified_levels", Json.int r.t_levels);
        ("frontier", Json.int r.t_frontier);
        ("wall_ms", Json.Num r.t_wall_ms);
        ("refine_rounds", Json.int r.t_refine_rounds);
        ("descriptors", Json.int r.t_descriptors);
      ]
  in
  (* Per-section view: counter increments and latency quantiles scoped
     to the section (histograms reset at entry, counters diffed). *)
  let section s =
    let latency (sn : Ld_obs.Hist.snapshot) =
      ( sn.sn_name,
        Json.Obj
          [
            ("count", Json.int sn.sn_count);
            ("p50_ms", Json.Num (Ld_obs.Hist.quantile_ms sn 0.5));
            ("p99_ms", Json.Num (Ld_obs.Hist.quantile_ms sn 0.99));
            ("max_ms", Json.Num (Ld_obs.Hist.max_ms sn));
          ] )
    in
    ( s.s_name,
      Json.Obj
        [
          ("wall_ms", Json.Num s.s_wall_ms);
          ("metrics", ints s.s_counters);
          ("latency", Json.Obj (List.map latency s.s_latency));
        ] )
  in
  let timing (name, t) = Json.Obj [ ("name", Json.Str name); ("ns", Json.Num t) ] in
  Json.write_file path
    (Json.Obj
       [
         ("bench", Json.Str "linear-delta-local THM1 frontier");
         (* Provenance (HEAD + dirty flag) comes from the shared probe so
            this artefact and BENCH_RUNTIME.json stay schema-identical;
            [domains] is the count the packed executor's rounds
            ([Engine.split]) run at. The THM1 rows run on one domain. *)
         ( "meta",
           Json.Obj
             (Provenance.json_meta_fields (Provenance.capture ())
             @ [ ("domains", Json.int (Pool.default_domains ())) ]) );
         ("rows", Json.Arr (List.map row rows));
         (* Cumulative over the whole run — CI's jq perf guards key on
            these, so they are never reset between sections. *)
         ("metrics", ints (Obs.counters ()));
         ("sections", Json.Obj (List.rev_map section !section_log));
         ("timing_ns_per_run", Json.Arr (List.map timing timings));
       ])

(* Flag parsing kept dependency-free: --quick, --tables (every section's
   table, no Bechamel pass), --trace FILE (Chrome trace-event export),
   --json FILE (override/enable the JSON artefact; the full pass
   defaults to BENCH_THM1.json, --quick and --tables to none),
   --max-delta N (cap every adversary delta, default 20), --store DIR
   (persist constructions in the content-addressed store: a second run
   warm-loads them instead of re-running the adversary). Any other
   argument exits 2: a typo must not fall through to the full sweep,
   which overwrites BENCH_THM1.json. *)
let check_args () =
  let argc = Array.length Sys.argv in
  let rec scan i =
    if i < argc then
      match Sys.argv.(i) with
      | "--quick" | "--tables" -> scan (i + 1)
      | ("--trace" | "--json" | "--max-delta" | "--store") when i + 1 < argc ->
        scan (i + 2)
      | arg ->
        Printf.eprintf
          "bench: unexpected argument %S (takes --quick, --tables, --trace F, \
           --json F, --max-delta N, --store D)\n"
          arg;
        exit 2
  in
  scan 1

let flag_value name =
  let rec scan i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let () =
  check_args ();
  let quick = Array.mem "--quick" Sys.argv in
  let tables = Array.mem "--tables" Sys.argv in
  let trace_path = flag_value "--trace" in
  let json_path = flag_value "--json" in
  let max_delta =
    match flag_value "--max-delta" with
    | None -> 20
    | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 2 -> d
      | _ ->
        Printf.eprintf "bad --max-delta %S (need an int >= 2)\n" s;
        exit 2)
  in
  let store =
    match flag_value "--store" with
    | None -> None
    | Some dir -> Some (Ld_store.Store.open_store ~dir ())
  in
  (* LD_OBS=off leaves the sink disabled end to end: the instrumentation
     overhead check diffs a --quick wall clock with and without it. The
     counters then stay at 0, and so do the rows' refine_rounds and
     descriptors. *)
  (match Sys.getenv_opt "LD_OBS" with
  | Some "off" -> ()
  | _ -> Obs.enable ());
  Printf.printf
    "linear-delta-local benchmark harness\n\
     reproduces: Goos, Hirvonen, Suomela — Linear-in-Delta Lower Bounds in \
     the LOCAL Model (PODC 2014)\n";
  let rows, timings =
    if quick then begin
      (* Smoke pass for CI: the THM1 rows (memo cache), the
         UPPER path (greedy + proposal through the active-set runtime)
         and the COST table on small deltas; no Bechamel. *)
      let deltas =
        List.init (Stdlib.min max_delta 6 - 1) (fun i -> i + 2)
      in
      let rows = timed "thm1" (thm1 ~store ~deltas ~mm_deltas:[ 4 ]) in
      timed "upper" (upper ~deltas:[ 4; 8 ]);
      timed "cost" (cost ~rows ~cost_delta:6);
      (rows, [])
    end
    else begin
      (* Every adversary delta a section runs is capped at max_delta. *)
      let upto = List.filter (fun d -> d <= max_delta) in
      let deltas = List.init (max_delta - 1) (fun i -> i + 2) in
      let rows = timed "thm1" (thm1 ~store ~deltas ~mm_deltas:(upto [ 4; 8; 12 ])) in
      timed "upper" (upper ?deltas:None);
      timed "cost" (cost ~rows ~cost_delta:(Stdlib.min 12 max_delta));
      timed "approx" approx;
      timed "vc" vc;
      timed "base" base;
      timed "sim" sim;
      timed "contrast" contrast;
      timed "locality" (locality ~rows ~deltas:(upto [ 3; 4; 5; 6; 7 ]));
      let timings = if tables then [] else timed "timing" bechamel_pass in
      (rows, timings)
    end
  in
  let json_target =
    match json_path with
    | Some _ as p -> p
    | None -> if quick || tables then None else Some "BENCH_THM1.json"
  in
  (match json_target with
  | Some path ->
    emit_json ~path ~rows ~timings;
    Printf.printf "\nwrote %s (%d thm1 rows)\n" path (List.length rows)
  | None -> ());
  (match trace_path with
  | Some path ->
    Trace.write ~path;
    Printf.printf "wrote Chrome trace to %s (load in Perfetto; tid = domain)\n"
      path
  | None -> ());
  Printf.printf "\nall benchmark assertions passed.\n"
