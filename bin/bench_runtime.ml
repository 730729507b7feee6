(* `ld bench-runtime` — mega-scale throughput bench for the packed
   runtime (BENCH_RUNTIME.json). Builds CSR instances at 10^5..10^7
   nodes straight into int arrays, runs the packed matching workloads
   at 1 and [Pool.default_domains ()] domains, and reports sends/sec,
   rounds/sec, wall time and its init part (the [runtime.packed.init]
   span: state and message arrays, initial broadcast; the rest is
   rounds), peak RSS and minor-heap allocation per row. The mirror
   table is not in any row: each graph carries it from its generator
   (or [Csr.greedy]), and every row on that graph reads it.
   The quick mode (CI smoke) keeps only the 10^5 legs plus the
   packed-vs-packed domain identity check.

   Peak RSS is VmHWM, reset ([Obs.reset_peak_rss]) after a full major
   collection before each row, so a row's figure is its own peak (the
   graph it runs on included); where the reset is unavailable it is the
   whole-process peak so far. The [runtime.bench.peak_rss_kb] gauge
   holds the largest row figure. *)

module Csr = Ld_graph.Csr
module Gen = Ld_graph.Generators
module Obs = Ld_obs.Obs
module Json = Ld_obs.Json
module Provenance = Ld_obs.Provenance
module Pool = Ld_pool.Pool
module Packed = Ld_runtime.Packed
module Packed_ii = Ld_matching.Packed_ii
module Packed_pr = Ld_matching.Packed_pr
module Davies_peck = Ld_matching.Davies_peck

let rss_gauge = Obs.Gauge.make "runtime.bench.peak_rss_kb"

(* Same interned histogram the packed executors record into; reset
   around each measured run so every row reports its own quantiles. *)
let h_round = Ld_obs.Hist.make "runtime.packed.round"

type row = {
  r_workload : string;
  r_algo : string;
  r_n : int;
  r_delta : int;
  r_domains : int;
  r_rounds : int;
  r_sends : int;
  r_wall_ms : float;
  r_init_ms : float;
  r_rss_kb : int;
  r_minor_words : int;
  r_round_p50_ms : float;
  r_round_p99_ms : float;
}

let tree_d = 3
let tree_delta = 8
let reg_d = 8
let ii_max_rounds = 100_000

(* The mates and the executor's stats of one run. *)
let run_algo ?par_threshold ~algo ~domains g =
  match algo with
  | `Ii ->
    let r, stats =
      Packed_ii.run ?par_threshold ~domains ~seed:42 ~max_rounds:ii_max_rounds g
    in
    (r.Packed_ii.mate, stats)
  | `Dp ->
    let r, stats =
      Davies_peck.run ?par_threshold ~domains ~seed:42
        ~max_rounds:ii_max_rounds g
    in
    (r.Davies_peck.mate, stats)
  | `Pr ->
    let r, stats = Packed_pr.run ?par_threshold ~domains g in
    (r.Packed_pr.mate, stats)

let algo_name = function `Ii -> "israeli-itai" | `Dp -> "davies-peck" | `Pr -> "panconesi-rizzi"

(* Minor words allocated so far by every domain. [Gc.quick_stat]'s
   figure advances only at a minor collection, so one is forced first;
   [Gc.minor_words ()] would count the calling domain alone. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let measure ~workload ~algo ~domains g =
  let n = g.Csr.n in
  Ld_obs.Hist.reset h_round;
  (* Free the previous workload's graph first: its arrays are unmapped
     only when a major cycle sweeps them, and until then they sit in the
     RSS the reset starts this row's peak from. *)
  Gc.full_major ();
  ignore (Obs.reset_peak_rss ());
  Obs.reset_events ();
  let minor0 = minor_words () in
  let t0 = Obs.now_ms () in
  let _, stats = run_algo ~algo ~domains g in
  let wall = Obs.now_ms () -. t0 in
  let minor = minor_words () -. minor0 in
  let init_ms =
    match List.assoc_opt "runtime.packed.init" (Obs.span_totals ()) with
    | Some (_, total_ms, _) -> total_ms
    | None -> 0.
  in
  let sn = Ld_obs.Hist.snapshot h_round in
  let rss = Option.value ~default:0 (Obs.peak_rss_kb ()) in
  Obs.Gauge.record rss_gauge rss;
  let r =
    {
      r_workload = workload;
      r_algo = algo_name algo;
      r_n = n;
      r_delta = Csr.max_degree g;
      r_domains = domains;
      r_rounds = stats.Packed.rounds;
      r_sends = stats.Packed.sends;
      r_wall_ms = wall;
      r_init_ms = init_ms;
      r_rss_kb = rss;
      r_minor_words = Float.to_int minor;
      r_round_p50_ms = Ld_obs.Hist.quantile_ms sn 0.5;
      r_round_p99_ms = Ld_obs.Hist.quantile_ms sn 0.99;
    }
  in
  Printf.printf
    "%-14s %-15s n=%-8d domains=%d  rounds=%-4d wall=%8.1fms (init %6.1fms)  \
     %10.0f sends/s  round p50=%.3fms p99=%.3fms  rss=%dkB minor=%dw\n\
     %!"
    r.r_workload r.r_algo n domains r.r_rounds wall r.r_init_ms
    (float_of_int r.r_sends /. (wall /. 1000.))
    r.r_round_p50_ms r.r_round_p99_ms r.r_rss_kb r.r_minor_words;
  r

(* Packed-vs-packed domain identity: every packed machine, at 1 domain
   and at a forced multi-domain split (par_threshold 0 so small inputs
   split too), must produce identical mates and rounds. *)
let identity_check () =
  let g = Gen.stream_biregular_tree ~d:tree_d ~delta:tree_delta 100_000 in
  List.for_all
    (fun algo ->
      let mate_a, a = run_algo ~algo ~domains:1 g in
      let mate_b, b = run_algo ~par_threshold:0 ~algo ~domains:4 g in
      Array.length mate_a = Array.length mate_b
      && Array.for_all2 Int.equal mate_a mate_b
      && a.Packed.rounds = b.Packed.rounds)
    [ `Ii; `Dp; `Pr ]

let emit_json ~path ~quick ~identical ~rows =
  let row r =
    let secs = r.r_wall_ms /. 1000. in
    Json.Obj
      [
        ("workload", Json.Str r.r_workload);
        ("algo", Json.Str r.r_algo);
        ("n", Json.int r.r_n);
        ("delta", Json.int r.r_delta);
        ("domains", Json.int r.r_domains);
        ("rounds", Json.int r.r_rounds);
        ("sends", Json.int r.r_sends);
        ("wall_ms", Json.Num r.r_wall_ms);
        ("init_ms", Json.Num r.r_init_ms);
        (* integral: CI's throughput floor compares it with `test -ge` *)
        ("sends_per_sec", Json.Num (Float.round (float_of_int r.r_sends /. secs)));
        ("rounds_per_sec", Json.Num (float_of_int r.r_rounds /. secs));
        ("peak_rss_kb", Json.int r.r_rss_kb);
        ("minor_words", Json.int r.r_minor_words);
        ("round_p50_ms", Json.Num r.r_round_p50_ms);
        ("round_p99_ms", Json.Num r.r_round_p99_ms);
      ]
  in
  Json.write_file path
    (Json.Obj
       [
         ("bench", Json.Str "linear-delta-local packed runtime throughput");
         ( "meta",
           Json.Obj
             (Provenance.json_meta_fields (Provenance.capture ())
             @ [
                 ("quick", Json.Bool quick);
                 ("default_domains", Json.int (Pool.default_domains ()));
                 ("identical", Json.Bool identical);
                 ("peak_rss_kb", Json.int (Obs.Gauge.value rss_gauge));
               ]) );
         ("rows", Json.Arr (List.map row rows));
       ])

let run ~quick ~out =
  Obs.enable ();
  let domain_legs =
    let d = Pool.default_domains () in
    if d > 1 then [ 1; d ] else [ 1 ]
  in
  let tree_sizes = if quick then [ 100_000 ] else [ 100_000; 1_000_000; 10_000_000 ] in
  let reg_sizes = if quick then [ 100_000 ] else [ 100_000; 1_000_000 ] in
  (* One unrecorded run of each machine on a small tree: a process's
     first run pays one-time first-use allocation, which would otherwise
     land in the first measured row's minor words. *)
  let small = Gen.stream_biregular_tree ~d:tree_d ~delta:tree_delta 1_000 in
  List.iter
    (fun algo -> ignore (run_algo ~algo ~domains:1 small : int array * Packed.stats))
    [ `Ii; `Dp; `Pr ];
  let rows = ref [] in
  let push r = rows := r :: !rows in
  List.iter
    (fun n ->
      let g = Gen.stream_biregular_tree ~d:tree_d ~delta:tree_delta n in
      List.iter
        (fun domains ->
          push (measure ~workload:"biregular-tree" ~algo:`Ii ~domains g);
          push (measure ~workload:"biregular-tree" ~algo:`Dp ~domains g);
          (* PR carries 5+5Δ state words per node: keep it off the
             10^7 leg, where II remains the headline. *)
          if n <= 1_000_000 then
            push (measure ~workload:"biregular-tree" ~algo:`Pr ~domains g))
        domain_legs)
    tree_sizes;
  List.iter
    (fun n ->
      (* Configuration-model rejection is hopeless at this scale; the
         permutation-cover family is the O(n d) near-regular stand-in. *)
      let g = Csr.greedy (Gen.perm_regular ~seed:42 n reg_d) in
      List.iter
        (fun domains ->
          push (measure ~workload:"perm-regular" ~algo:`Ii ~domains g);
          push (measure ~workload:"perm-regular" ~algo:`Dp ~domains g))
        domain_legs)
    reg_sizes;
  let identical = identity_check () in
  Printf.printf "domain identity (II, DP, PR; 1 vs 4 domains, n=100000): %b\n%!"
    identical;
  emit_json ~path:out ~quick ~identical ~rows:(List.rev !rows);
  Printf.printf "wrote %s\n" out;
  if identical then 0 else 1
