(* The Section 4 adversary: Theorem 1 as machine-checked certificates. *)

module LB = Ld_core.Lower_bound
module Packing = Ld_matching.Packing
module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Refinement = Ld_cover.Refinement
module View = Ld_cover.View
module Lift = Ld_cover.Lift

let certs_of = function
  | LB.Certified certs -> certs
  | LB.Refuted _ -> Alcotest.fail "expected certification"

let check_certificate delta (c : LB.certificate) =
  (* P1: differing outputs on the distinguished colour-c loops... *)
  Alcotest.(check bool)
    (Printf.sprintf "level %d weights differ" c.level)
    false
    (Q.equal c.g_weight c.h_weight);
  Alcotest.(check int) "loop colour (G)" c.colour (Ec.loop (LB.force c.g_graph) c.g_loop).colour;
  Alcotest.(check int) "loop colour (H)" c.colour (Ec.loop (LB.force c.h_graph) c.h_loop).colour;
  Alcotest.(check int) "loop node (G)" c.g_node (Ec.loop (LB.force c.g_graph) c.g_loop).node;
  Alcotest.(check int) "loop node (H)" c.h_node (Ec.loop (LB.force c.h_graph) c.h_loop).node;
  (* ... on isomorphic radius-i views. *)
  Alcotest.(check bool)
    (Printf.sprintf "level %d views isomorphic" c.level)
    true
    (Refinement.equivalent_radius (LB.force c.g_graph) c.g_node (LB.force c.h_graph) c.h_node
       ~radius:c.level);
  (* P2: (Δ-1-i)-loopiness of the multigraphs themselves. *)
  Alcotest.(check bool) "P2 for G" true (Ec.min_loops (LB.force c.g_graph) >= delta - 1 - c.level);
  Alcotest.(check bool) "P2 for H" true (Ec.min_loops (LB.force c.h_graph) >= delta - 1 - c.level);
  (* Degrees stay within Δ. *)
  Alcotest.(check bool) "degree bound G" true (Ec.max_degree (LB.force c.g_graph) <= delta);
  Alcotest.(check bool) "degree bound H" true (Ec.max_degree (LB.force c.h_graph) <= delta)

(* Greedy's chains also serialise to the bytes pinned when the
   adversary still kept its graphs eagerly. *)
let adversary_certifies_greedy () =
  List.iter
    (fun (delta, digest) ->
      let cache = LB.build_cache ~delta Packing.greedy_algorithm in
      let certs = certs_of (LB.cache_outcome cache) in
      Alcotest.(check int)
        (Printf.sprintf "delta=%d levels" delta)
        (delta - 1) (List.length certs);
      List.iter (check_certificate delta) certs;
      Alcotest.(check string)
        (Printf.sprintf "delta=%d bytes" delta)
        digest (Certificate_digests.md5 certs);
      Alcotest.(check string)
        (Printf.sprintf "delta=%d file bytes" delta)
        (List.assoc delta Certificate_digests.greedy_files)
        (Certificate_digests.file_md5 cache))
    Certificate_digests.greedy

let adversary_certifies_greedy_matching () =
  (* The companion result [13]: the greedy maximal matching (a 0/1
     maximal FM) also needs Ω(Δ) rounds; truncations are refuted. *)
  List.iter
    (fun delta ->
      let certs =
        certs_of (LB.run ~delta (Ld_matching.Mm_ec.as_packing_algorithm ()))
      in
      Alcotest.(check int)
        (Printf.sprintf "delta=%d levels" delta)
        (delta - 1) (List.length certs);
      List.iter (check_certificate delta) certs)
    [ 2; 3; 4; 5; 6 ];
  match LB.run ~delta:6 (Ld_matching.Mm_ec.as_packing_algorithm ~truncate:3 ()) with
  | LB.Certified _ -> Alcotest.fail "truncated matching certified"
  | LB.Refuted (_, f) ->
    Alcotest.(check bool) "prompt refutation" true (f.LB.fail_level <= 4)

let adversary_certifies_proposal () =
  List.iter
    (fun delta ->
      let certs = certs_of (LB.run ~delta Packing.proposal_algorithm) in
      Alcotest.(check int)
        (Printf.sprintf "delta=%d levels" delta)
        (delta - 1) (List.length certs))
    [ 2; 4; 6 ]

let base_case_is_figure5 () =
  (* Level 0: G_0 one node with Δ loops, H_0 with Δ-1 loops, same node. *)
  let certs = certs_of (LB.run ~delta:4 Packing.greedy_algorithm) in
  match certs with
  | c0 :: _ ->
    Alcotest.(check int) "G0 is a single node" 1 (Ec.n (LB.force c0.g_graph));
    Alcotest.(check int) "G0 has delta loops" 4 (Ec.num_loops (LB.force c0.g_graph));
    Alcotest.(check int) "H0 has delta-1 loops" 3 (Ec.num_loops (LB.force c0.h_graph));
    Alcotest.(check int) "same node" c0.g_node c0.h_node
  | [] -> Alcotest.fail "no certificates"

let graphs_double_per_level () =
  (* COST: |G_i| = 2^i (the unfold step doubles). *)
  let certs = certs_of (LB.run ~delta:7 Packing.greedy_algorithm) in
  List.iter
    (fun (c : LB.certificate) ->
      Alcotest.(check int)
        (Printf.sprintf "level %d size" c.level)
        (1 lsl c.level) (Ec.n (LB.force c.g_graph)))
    certs

let truncated_algorithms_refuted () =
  (* The dichotomy: r-round truncations are refuted, with a concrete
     feasibility/maximality violation on a loopy graph, and the failure
     persists on the simple 2-lift. *)
  List.iter
    (fun r ->
      match LB.run ~delta:6 (Packing.truncated `Greedy r) with
      | LB.Certified _ -> Alcotest.fail "truncated algorithm cannot be certified"
      | LB.Refuted (certs, f) ->
        Alcotest.(check bool) "has violations" true (f.fail_violations <> []);
        Alcotest.(check bool) "graph is loopy" true (Ec.min_loops f.fail_graph >= 1);
        Alcotest.(check bool) "lift is a covering" true (Lift.is_covering f.fail_lift);
        Alcotest.(check int) "lift is loop-free" 0 (Ec.num_loops f.fail_lift.total);
        (* The pulled-back output fails on the simple lift too. *)
        let lifted = Fm.pull_back f.fail_lift f.fail_output in
        Alcotest.(check bool) "violation persists on simple lift" false
          (Fm.is_maximal_fm lifted);
        (* The refutation arrives within r+1 levels of the truncation. *)
        Alcotest.(check bool) "fails promptly" true (f.fail_level <= r + 1);
        Alcotest.(check int) "certificates before break" f.fail_level
          (List.length certs))
    [ 0; 1; 2; 3; 4 ]

let boundary_is_linear () =
  (* THM1 frontier: max certified level of the r-round truncation is
     exactly min(r-2, Δ-2) for the greedy algorithm — linear in r. *)
  let delta = 7 in
  let cache = LB.build_cache ~check_views:false ~delta Packing.greedy_algorithm in
  for r = 0 to 8 do
    let expected = max (-1) (min (r - 2) (delta - 2)) in
    Alcotest.(check int) (Printf.sprintf "r=%d" r) expected
      (LB.max_level (LB.cached_run cache (Packing.truncated `Greedy r)))
  done

(* ---- memoised frontier scans ---- *)

let cache_shares_certificates () =
  let delta = 6 in
  let cache = LB.build_cache ~delta Packing.greedy_algorithm in
  (* Replaying the base algorithm returns the recorded outcome itself:
     the certificate list — and the (G_i, H_i) pairs inside — are
     physically shared, not rebuilt. *)
  let replayed = LB.cached_run cache Packing.greedy_algorithm in
  Alcotest.(check bool) "outcome physically shared" true
    (replayed == LB.cache_outcome cache);
  (match replayed with
  | LB.Certified certs ->
    let base_certs = certs_of (LB.cache_outcome cache) in
    List.iter2
      (fun (x : LB.certificate) (y : LB.certificate) ->
        Alcotest.(check bool) "G_i shared" true ((LB.force x.g_graph) == (LB.force y.g_graph));
        Alcotest.(check bool) "H_i shared" true ((LB.force x.h_graph) == (LB.force y.h_graph)))
      certs base_certs
  | LB.Refuted _ -> Alcotest.fail "expected certification");
  (* A refuted truncation shares its certificate prefix with the cache. *)
  match LB.cached_run cache (Packing.truncated `Greedy 4) with
  | LB.Certified _ -> Alcotest.fail "truncation certified"
  | LB.Refuted (prefix, f) ->
    let base_certs = certs_of (LB.cache_outcome cache) in
    Alcotest.(check int) "prefix stops at failure" f.LB.fail_level
      (List.length prefix);
    List.iteri
      (fun i (c : LB.certificate) ->
        Alcotest.(check bool) "prefix certificate shared" true
          (c == List.nth base_certs i))
      prefix

let cached_frontier_matches_full_runs () =
  (* Δ = 2..6: for every truncation r, the cached replay and a fresh
     full adversary run reach the same verdict and the same max level. *)
  List.iter
    (fun delta ->
      let cache =
        LB.build_cache ~check_views:false ~delta Packing.greedy_algorithm
      in
      for r = 0 to delta + 1 do
        let algo = Packing.truncated `Greedy r in
        let cached = LB.cached_run cache algo in
        let full = LB.run ~check_views:false ~delta algo in
        Alcotest.(check int)
          (Printf.sprintf "delta=%d r=%d max level" delta r)
          (LB.max_level full) (LB.max_level cached);
        Alcotest.(check bool)
          (Printf.sprintf "delta=%d r=%d same verdict" delta r)
          (match full with LB.Certified _ -> true | LB.Refuted _ -> false)
          (match cached with LB.Certified _ -> true | LB.Refuted _ -> false)
      done)
    [ 2; 3; 4; 5; 6 ]

let analytic_replay_matches_cached_run () =
  (* truncated_verdict derives the verdict from the recorded colour
     thresholds without running anything; it must agree with the
     probe-re-running cached_run on every truncation. *)
  List.iter
    (fun delta ->
      let cache = LB.build_cache ~delta Packing.greedy_algorithm in
      for r = 0 to delta + 2 do
        Alcotest.(check bool)
          (Printf.sprintf "delta=%d r=%d verdict" delta r)
          true
          (match
             ( LB.truncated_verdict cache ~rounds:r,
               LB.cached_run cache (Packing.truncated `Greedy r) )
           with
          | `Certified, LB.Certified _ | `Refuted, LB.Refuted _ -> true
          | _ -> false)
      done)
    [ 2; 3; 4; 5; 6 ]

(* A cache built against a refuted base: its certificates serialise to
   the pinned bytes of the certified prefix, its last probe is the
   failing graph (feasible at no truncation), and replaying the base
   against it refutes at the same level. *)
let refuted_base_cache () =
  let delta = 6 and base = Packing.truncated `Greedy 4 in
  let cache = LB.build_cache ~delta base in
  match LB.cache_outcome cache with
  | LB.Refuted (certs, f) ->
    Alcotest.(check int) "fail level" 3 f.LB.fail_level;
    Alcotest.(check string) "certified prefix bytes"
      Certificate_digests.truncated_greedy4_delta6
      (Certificate_digests.md5 certs);
    let last = List.nth (LB.cache_probes cache) (List.length (LB.cache_probes cache) - 1) in
    Alcotest.(check int) "failing probe level" f.LB.fail_level last.probe_level;
    Alcotest.(check int) "failing probe threshold" max_int last.prefix_round;
    Alcotest.(check bool) "failing probe graph" true
      (Ec.equal f.LB.fail_graph (LB.force last.probe_graph));
    (match LB.cached_run cache base with
    | LB.Refuted (prefix, f'') ->
      Alcotest.(check int) "replayed fail level" f.LB.fail_level f''.LB.fail_level;
      Alcotest.(check int) "replayed prefix" (List.length certs) (List.length prefix)
    | LB.Certified _ -> Alcotest.fail "replay of a refuted base certified")
  | LB.Certified _ -> Alcotest.fail "expected a refuted base"

let analytic_replay_validation () =
  let cache = LB.build_cache ~delta:4 Packing.proposal_algorithm in
  Alcotest.(check bool) "proposal cache rejected" true
    (try
       ignore (LB.truncated_verdict cache ~rounds:3);
       false
     with Invalid_argument _ -> true);
  let gcache = LB.build_cache ~delta:4 Packing.greedy_algorithm in
  Alcotest.(check bool) "negative rounds rejected" true
    (try
       ignore (LB.truncated_verdict gcache ~rounds:(-1));
       false
     with Invalid_argument _ -> true)

let pool_map_is_deterministic () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "order preserved"
    (List.map (fun x -> x * x) xs)
    (Ld_pool.Pool.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "mapi indices" (List.init 10 (fun i -> 2 * i))
    (Ld_pool.Pool.mapi ~domains:3 (fun i x -> i + x) (List.init 10 Fun.id));
  Alcotest.check_raises "earliest failure re-raised" (Failure "boom3")
    (fun () ->
      ignore
        (Ld_pool.Pool.map ~domains:3
           (fun x -> if x >= 3 then failwith (Printf.sprintf "boom%d" x) else x)
           xs))

let non_lift_invariant_rejected () =
  (* An "algorithm" that breaks symmetry it cannot see (uses node ids)
     must be caught by the lift-invariance sanity check. *)
  let cheating =
    {
      LB.name = "cheater";
      run =
        (fun g ->
          (* Saturate node 0's first loop only; elsewhere greedy. *)
          let y = Ld_fm.Greedy.maximal_fm g in
          match Ec.loops_at g 0 with
          | l0 :: _ ->
            let loop_w =
              Array.mapi
                (fun i w -> if i = l0 then Q.one else w)
                (Array.init (Ec.num_loops g) (Fm.loop_weight y))
            in
            let edge_w =
              Array.init (Ec.num_edges g) (fun i ->
                  if i = 0 then Q.zero else Fm.edge_weight y i)
            in
            Fm.create g ~edge_w ~loop_w
          | [] -> y);
    }
  in
  Alcotest.(check bool) "cheater detected or refuted" true
    (try
       match LB.run ~delta:5 cheating with
       | LB.Refuted _ -> true
       | LB.Certified _ -> false
     with Failure _ -> true)

let views_match_explicit_trees () =
  (* Cross-validate the adversary's incremental P1 check (refinement of
     the covering anchor against the mixture) with a from-scratch
     refinement of the certificate's own graphs, and with explicit view
     trees at small levels — on greedy's certificates and on the
     certified prefixes of refuted truncations. *)
  let prefix = function LB.Certified certs | LB.Refuted (certs, _) -> certs in
  let inputs =
    List.map
      (fun delta ->
        (Printf.sprintf "greedy delta=%d" delta, certs_of (LB.run ~delta Packing.greedy_algorithm)))
      [ 2; 3; 4; 5; 6; 7 ]
    @ List.map
        (fun r ->
          ( Printf.sprintf "truncated r=%d delta=5" r,
            prefix (LB.run ~delta:5 (Packing.truncated `Greedy r)) ))
        [ 0; 2; 4 ]
  in
  List.iter
    (fun (name, certs) ->
      List.iter
        (fun (c : LB.certificate) ->
          let what fmt = Printf.sprintf ("%s level %d: " ^^ fmt) name c.level in
          let g = LB.force c.g_graph and h = LB.force c.h_graph in
          Alcotest.(check bool) (what "views checked") true c.views_checked;
          Alcotest.(check bool) (what "refinement from scratch") true
            (Refinement.equivalent_radius g c.g_node h c.h_node ~radius:c.level);
          if c.level <= 3 then
            let arena = View.arena () in
            Alcotest.(check bool) (what "explicit views agree") true
              (View.equal
                 (View.of_ec arena g c.g_node ~radius:c.level)
                 (View.of_ec arena h c.h_node ~radius:c.level)))
        certs)
    inputs

let report_rendering () =
  let certified = LB.run ~delta:4 Packing.greedy_algorithm in
  let doc =
    Ld_core.Report.markdown ~delta:4 ~algorithm_name:"greedy" certified
  in
  let has needle =
    let n = String.length needle and h = String.length doc in
    let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions outcome" true (has "CERTIFIED");
  Alcotest.(check bool) "mentions levels" true (has "### Level 2");
  Alcotest.(check bool) "inlines base case" true (has "loop @0");
  let refuted = LB.run ~delta:4 (Packing.truncated `Greedy 1) in
  let doc' = Ld_core.Report.markdown ~delta:4 ~algorithm_name:"t" refuted in
  let has' needle =
    let n = String.length needle and h = String.length doc' in
    let rec go i = i + n <= h && (String.sub doc' i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions refutation" true (has' "REFUTED");
  Alcotest.(check bool) "includes 2-lift statement" true (has' "2-lift")

let delta_validation () =
  Alcotest.check_raises "delta >= 2"
    (Invalid_argument "Lower_bound.run: delta must be >= 2") (fun () ->
      ignore (LB.run ~delta:1 Packing.greedy_algorithm))

(* ---- empirical locality (Definition (1) as a test) ---- *)

let locality_of_certified_algorithm () =
  let module Loc = Ld_core.Locality in
  List.iter
    (fun delta ->
      let certs = certs_of (LB.run ~delta Packing.greedy_algorithm) in
      let probes = Loc.probes_of_certificates certs in
      (* The certificates are locality violations by construction, so the
         measured locality exceeds the top level. *)
      match Loc.empirical_locality ~max_radius:(delta + 2) Packing.greedy_algorithm probes with
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "delta=%d locality %d > %d" delta t (delta - 2))
          true
          (t > delta - 2)
      | None -> Alcotest.fail "no consistent radius found")
    [ 3; 4; 5; 6 ]

let locality_violation_details () =
  let module Loc = Ld_core.Locality in
  let certs = certs_of (LB.run ~delta:4 Packing.greedy_algorithm) in
  let top = List.nth certs (List.length certs - 1) in
  (* The top-level pair alone is a radius-(Δ-2) violation. *)
  match
    Loc.violation_at ~radius:top.level Packing.greedy_algorithm
      [ (LB.force top.g_graph); (LB.force top.h_graph) ]
  with
  | None -> Alcotest.fail "certificate pair must violate its own level"
  | Some v -> Alcotest.(check int) "radius" top.level v.Loc.radius

let locality_respects_truncation () =
  let module Loc = Ld_core.Locality in
  (* A genuinely r-round machine can never be caught above r+1. *)
  let probes =
    List.map
      (fun s ->
        Ld_models.Edge_colouring.ec_of_simple
          (Ld_graph.Generators.random_bounded_degree ~seed:s 12 4))
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun r ->
      match
        Loc.empirical_locality ~max_radius:12 (Packing.truncated `Greedy r) probes
      with
      | Some t -> Alcotest.(check bool) "within r+1" true (t <= r + 1)
      | None -> Alcotest.fail "unbounded locality for a truncated machine")
    [ 0; 1; 2; 3 ]

let id_locality_of_israeli_itai () =
  (* Definition (1) for the ID model: with a fixed seed, Israeli–Itai's
     output at v is reproduced by running it on the identified ball of
     radius = (global round count); outputs are compared as partner
     identifiers, which are index-independent. *)
  let module Loc = Ld_core.Locality in
  let module II = Ld_matching.Israeli_itai in
  let module Id = Ld_models.Labelled.Id in
  let module Ball = Ld_cover.Ball in
  List.iter
    (fun seed ->
      let g = Ld_graph.Generators.random_bounded_degree ~seed 18 4 in
      let idg = Id.trivial g in
      let rounds = (II.run ~seed:9 ~max_rounds:1000 idg).II.rounds in
      let run idg' =
        let r = II.run ~seed:9 ~max_rounds:1000 idg' in
        Array.mapi
          (fun _ m -> Option.map (fun w -> Id.id idg' w) m)
          r.II.mate
      in
      for v = 0 to Ld_graph.Graph.n g - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "seed %d node %d is %d-local" seed v rounds)
          true
          (Loc.id_local_at ~radius:rounds ~run ~equal:(Option.equal Int.equal) idg v)
      done)
    [ 1; 2; 3 ]

let ball_extraction () =
  let module Ball = Ld_cover.Ball in
  let module Id = Ld_models.Labelled.Id in
  let g = Ld_graph.Generators.cycle 8 in
  let idg = Id.create g [| 10; 11; 12; 13; 14; 15; 16; 17 |] in
  let b = Ball.extract idg 0 ~radius:2 in
  Alcotest.(check int) "5 nodes within distance 2" 5 (Ball.size b);
  (* the two distance-2 nodes are not adjacent in the ball (their edge
     has distance 3) *)
  Alcotest.(check int) "4 edges" 4 (Ld_graph.Graph.m (Id.graph b.Ball.ball_graph));
  Alcotest.(check int) "root keeps its id" 10
    (Id.id b.Ball.ball_graph b.Ball.root);
  let b0 = Ball.extract idg 3 ~radius:0 in
  Alcotest.(check int) "radius 0 = bare node" 1 (Ball.size b0);
  Alcotest.(check int) "no edges at radius 0" 0
    (Ld_graph.Graph.m (Id.graph b0.Ball.ball_graph))

(* ---- certificate files & independent verification ---- *)

module CS = Ld_core.Cache_store
module CIO = Ld_core.Certificate_io

let certificate_roundtrip () =
  let cache = LB.build_cache ~delta:5 Packing.greedy_algorithm in
  let certs = certs_of (LB.cache_outcome cache) in
  let file = CS.chain_to_string cache in
  let read = CS.chain_of_string ~delta:5 file in
  Alcotest.(check string) "re-encodes to the same bytes" file
    (CS.chain_to_string read);
  let back = certs_of (LB.cache_outcome read) in
  Alcotest.(check int) "count preserved" (List.length certs) (List.length back);
  List.iter2
    (fun (a : LB.certificate) (b : LB.certificate) ->
      Alcotest.(check int) "level" a.level b.level;
      Alcotest.(check int) "colour" a.colour b.colour;
      Alcotest.(check bool) "g graph" true (Ec.equal (LB.force a.g_graph) (LB.force b.g_graph));
      Alcotest.(check bool) "h graph" true (Ec.equal (LB.force a.h_graph) (LB.force b.h_graph));
      Alcotest.(check bool) "weights" true
        (Q.equal a.g_weight b.g_weight && Q.equal a.h_weight b.h_weight))
    certs back;
  (* Independent verification, including re-running the algorithm. *)
  let checks =
    CIO.verify ~algorithm:Packing.greedy_algorithm ~delta:5 back
  in
  List.iter
    (fun c -> Alcotest.(check bool) "check ok" true (CIO.check_ok c))
    checks

let certificate_tamper_detected () =
  let certs = certs_of (LB.run ~delta:4 Packing.greedy_algorithm) in
  (* Tamper 1: claim equal weights. *)
  let forged =
    List.map (fun (c : LB.certificate) -> { c with LB.h_weight = c.g_weight }) certs
  in
  Alcotest.(check bool) "equal weights rejected" false
    (List.for_all CIO.check_ok (CIO.verify ~delta:4 forged));
  (* Tamper 2: misreport the algorithm's output. *)
  let forged2 =
    List.map
      (fun (c : LB.certificate) ->
        { c with LB.g_weight = Q.add c.g_weight (Q.of_ints 1 7) })
      certs
  in
  Alcotest.(check bool) "wrong outputs rejected" false
    (List.for_all CIO.check_ok
       (CIO.verify ~algorithm:Packing.greedy_algorithm ~delta:4 forged2));
  (* Tamper 3: wrong distinguished node. *)
  let forged3 =
    List.filter_map
      (fun (c : LB.certificate) ->
        if c.LB.level >= 1 then Some { c with LB.g_node = (c.LB.g_node + 1) mod Ec.n (LB.force c.LB.g_graph) }
        else None)
      certs
  in
  Alcotest.(check bool) "wrong node rejected" false
    (List.for_all CIO.check_ok (CIO.verify ~delta:4 forged3))

(* A certificate file spelled by hand: the header, a record count and
   length-prefixed records (every count here fits one varint byte). *)
let header = "ld-chain/v" ^ CS.code_version ^ "\n"

let frame ?(header = header) records =
  header
  ^ String.make 1 (Char.chr (List.length records))
  ^ String.concat ""
      (List.map (fun r -> String.make 1 (Char.chr (String.length r)) ^ r) records)

let records delta =
  match CS.level_entries (LB.build_cache ~delta Packing.greedy_algorithm) with
  | Some entries -> List.map CS.entry_to_string entries
  | None -> Alcotest.fail "greedy unexpectedly refuted"

(* Files the trail codec must refuse: each raises [Failure] when it is
   read, before a graph is replayed, so a short file naming a large Δ
   makes no replay of that size. *)
let crafted_certificate_rejected () =
  let d4 = records 4 and d5 = records 5 in
  Alcotest.(check string) "the spelling matches the codec"
    (CS.chain_to_string (LB.build_cache ~delta:4 Packing.greedy_algorithm))
    (frame d4);
  let replays = Ld_obs.Obs.Counter.make "core.lb.replays" in
  Ld_obs.Obs.reset ();
  Ld_obs.Obs.enable ();
  Fun.protect ~finally:Ld_obs.Obs.disable @@ fun () ->
  let rejects ?(delta = 4) what file =
    match CS.chain_of_string ~delta file with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Failure _ -> ()
  in
  let level0, level1, level2 =
    match d4 with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "three levels"
  in
  (* the level-1 record ends with its weights "0" and "1" and views flag 1 *)
  let with_h_weight w =
    let keep = String.length level1 - 3 in
    Alcotest.(check string) "level 1 ends in weight 1" "\x011\x01"
      (String.sub level1 keep 3);
    String.sub level1 0 keep ^ String.make 1 (Char.chr (String.length w)) ^ w ^ "\x01"
  in
  (* a level 0 that removes and changes other loops than greedy's *)
  let other_level0 =
    let entry_certificate, entry_probes =
      LB.level_of_trail [| LB.Base { delta = 4; removed = 3; changed = 2 } |]
        ~g_weight:Q.zero ~h_weight:Q.one ~views_checked:true ~prefix_rounds:[ 1; 1 ]
    in
    CS.entry_to_string { CS.entry_level = 0; entry_certificate; entry_probes }
  in
  rejects "header of another code version" (frame ~header:"ld-chain/v2\n" d4);
  rejects "no header" (String.concat "" d4);
  rejects ~delta:3 "delta 4 file read for delta 3" (frame d4);
  rejects ~delta:5 "delta 4 file read for delta 5" (frame d4);
  rejects ~delta:32 "delta 4 file read for delta 32" (frame d4);
  rejects "delta 5 levels 0..2 read for delta 4" (frame (List.filteri (fun i _ -> i < 3) d5));
  rejects "two of three levels" (frame [ level0; level1 ]);
  rejects "four levels" (frame (d4 @ [ level2 ]));
  rejects "levels out of order" (frame [ level1; level0; level2 ]);
  rejects "trails that are no prefixes of one trail" (frame [ other_level0; level1; level2 ]);
  rejects "weight 1/0" (frame [ level0; with_h_weight "1/0"; level2 ]);
  rejects "weight abc" (frame [ level0; with_h_weight "abc"; level2 ]);
  rejects "huge record length"
    (header ^ "\x03\xff\xff\xff\xff\xff\xff\xff\x7f" ^ level0);
  rejects "huge record count"
    (header ^ "\xff\xff\xff\xff\x0f" ^ String.concat "" d4);
  rejects "trailing bytes" (frame d4 ^ "\x00");
  Alcotest.(check int) "no graph replayed" 0 (Ld_obs.Obs.Counter.value replays);
  Alcotest.(check int) "the untouched file reads" 3
    (List.length (certs_of (LB.cache_outcome (CS.chain_of_string ~delta:4 (frame d4)))))

let certificate_file_roundtrip () =
  let cache = LB.build_cache ~delta:4 Packing.greedy_algorithm in
  let path = Filename.temp_file "ld_cert" ".chain" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      CIO.save path cache;
      let back = CIO.load ~delta:4 path in
      Alcotest.(check int) "count" 3 (List.length back);
      Alcotest.(check bool) "verifies" true
        (List.for_all CIO.check_ok
           (CIO.verify ~algorithm:Packing.greedy_algorithm ~delta:4 back)))

let () =
  Alcotest.run "core"
    [
      ( "theorem1",
        [
          Alcotest.test_case "greedy certified to level Δ-2" `Quick
            adversary_certifies_greedy;
          Alcotest.test_case "proposal certified to level Δ-2" `Quick
            adversary_certifies_proposal;
          Alcotest.test_case "greedy matching certified (cf. [13])" `Quick
            adversary_certifies_greedy_matching;
          Alcotest.test_case "boundary linear in r" `Quick boundary_is_linear;
        ] );
      ( "memoisation",
        [
          Alcotest.test_case "cache shares certificates" `Quick
            cache_shares_certificates;
          Alcotest.test_case "cached frontier = full runs" `Quick
            cached_frontier_matches_full_runs;
          Alcotest.test_case "analytic replay = cached run" `Quick
            analytic_replay_matches_cached_run;
          Alcotest.test_case "analytic replay validation" `Quick
            analytic_replay_validation;
          Alcotest.test_case "refuted base cache" `Quick refuted_base_cache;
          Alcotest.test_case "pool map deterministic" `Quick
            pool_map_is_deterministic;
        ] );
      ( "scale",
        [
          Alcotest.test_case "delta=10 full certification" `Slow (fun () ->
              let certs = certs_of (LB.run ~delta:10 Packing.greedy_algorithm) in
              Alcotest.(check int) "9 levels" 9 (List.length certs);
              List.iter (check_certificate 10) certs;
              let top = List.nth certs 8 in
              Alcotest.(check int) "top size 2^8" 256 (Ec.n (LB.force top.g_graph)));
        ] );
      ( "construction",
        [
          Alcotest.test_case "base case (Fig. 5)" `Quick base_case_is_figure5;
          Alcotest.test_case "sizes double (unfold)" `Quick graphs_double_per_level;
          Alcotest.test_case "explicit views agree" `Quick views_match_explicit_trees;
          Alcotest.test_case "delta validation" `Quick delta_validation;
          Alcotest.test_case "report rendering" `Quick report_rendering;
        ] );
      ( "refutation",
        [
          Alcotest.test_case "truncations refuted with witnesses" `Quick
            truncated_algorithms_refuted;
          Alcotest.test_case "cheating algorithms rejected" `Quick
            non_lift_invariant_rejected;
        ] );
      ( "locality",
        [
          Alcotest.test_case "certified algorithm locality > Δ-2" `Quick
            locality_of_certified_algorithm;
          Alcotest.test_case "violation details" `Quick locality_violation_details;
          Alcotest.test_case "truncation bound" `Quick locality_respects_truncation;
          Alcotest.test_case "ball extraction" `Quick ball_extraction;
          Alcotest.test_case "ID locality (Israeli-Itai)" `Quick id_locality_of_israeli_itai;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "serialise + verify" `Quick certificate_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick certificate_file_roundtrip;
          Alcotest.test_case "tampering detected" `Quick certificate_tamper_detected;
          Alcotest.test_case "crafted files rejected" `Quick
            crafted_certificate_rejected;
        ] );
    ]
