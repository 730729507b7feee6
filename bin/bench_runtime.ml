(* `ld bench-runtime` — mega-scale throughput bench for the packed
   runtime (BENCH_RUNTIME.json). Streams CSR instances at 10^5..10^7
   nodes straight into int arrays, runs the packed matching workloads
   at 1 and [Pool.default_domains ()] domains, and reports sends/sec,
   rounds/sec, wall time and peak RSS per row. The quick mode (CI
   smoke) keeps only the 10^5 legs plus the packed-vs-packed domain
   identity check.

   Peak RSS is VmHWM: a process-lifetime high-water mark, monotone
   across rows — the figure recorded per row is "peak so far", and the
   [runtime.bench.peak_rss_kb] gauge holds the final maximum. *)

module Csr = Ld_graph.Csr
module Gen = Ld_graph.Generators
module Obs = Ld_obs.Obs
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
  r_rss_kb : int;
  r_round_p50_ms : float;
  r_round_p99_ms : float;
}

let tree_d = 3
let tree_delta = 8
let reg_d = 8
let ii_max_rounds = 100_000

let run_algo ~algo ~domains g =
  match algo with
  | `Ii ->
    let _, stats =
      Packed_ii.run ~domains ~seed:42 ~max_rounds:ii_max_rounds g
    in
    stats
  | `Dp ->
    let _, stats =
      Davies_peck.run ~domains ~seed:42 ~max_rounds:ii_max_rounds g
    in
    stats
  | `Pr ->
    let _, stats = Packed_pr.run ~domains g in
    stats

let algo_name = function `Ii -> "israeli-itai" | `Dp -> "davies-peck" | `Pr -> "panconesi-rizzi"

let measure ~workload ~algo ~domains g =
  let n = g.Csr.n in
  Ld_obs.Hist.reset h_round;
  let t0 = Obs.now_ms () in
  let stats = run_algo ~algo ~domains g in
  let wall = Obs.now_ms () -. t0 in
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
      r_rss_kb = rss;
      r_round_p50_ms = Ld_obs.Hist.quantile_ms sn 0.5;
      r_round_p99_ms = Ld_obs.Hist.quantile_ms sn 0.99;
    }
  in
  Printf.printf
    "%-14s %-15s n=%-8d domains=%d  rounds=%-4d wall=%8.1fms  %10.0f sends/s  \
     round p50=%.3fms p99=%.3fms\n\
     %!"
    r.r_workload r.r_algo n domains r.r_rounds wall
    (float_of_int r.r_sends /. (wall /. 1000.))
    r.r_round_p50_ms r.r_round_p99_ms;
  r

(* Packed-vs-packed domain identity: the same workload at 1 domain and
   at a forced multi-domain split (par_threshold 0 so small inputs
   split too) must produce identical mates and rounds. *)
let identity_check () =
  let g = Gen.stream_biregular_tree ~d:tree_d ~delta:tree_delta 100_000 in
  let a, _ =
    Packed_ii.run ~domains:1 ~seed:42 ~max_rounds:ii_max_rounds g
  in
  let b, _ =
    Packed_ii.run ~par_threshold:0 ~domains:4 ~seed:42
      ~max_rounds:ii_max_rounds g
  in
  let mate_a = a.Packed_ii.mate and mate_b = b.Packed_ii.mate in
  Array.length mate_a = Array.length mate_b
  && Array.for_all2 Int.equal mate_a mate_b
  && a.Packed_ii.rounds = b.Packed_ii.rounds

let json_escape = Ld_obs.Json.escape

let emit_json ~path ~quick ~identical ~rows =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n  \"bench\": \"linear-delta-local packed runtime throughput\",\n";
  add "  \"meta\": {\n";
  List.iter
    (fun field -> add (Printf.sprintf "    %s,\n" field))
    (Provenance.json_meta_fields (Provenance.capture ()));
  add (Printf.sprintf "    \"quick\": %b,\n" quick);
  add (Printf.sprintf "    \"default_domains\": %d,\n" (Pool.default_domains ()));
  add (Printf.sprintf "    \"identical\": %b,\n" identical);
  add
    (Printf.sprintf "    \"peak_rss_kb\": %d\n" (Obs.Gauge.value rss_gauge));
  add "  },\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      let secs = r.r_wall_ms /. 1000. in
      add
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"algo\": \"%s\", \"n\": %d, \
            \"delta\": %d, \"domains\": %d, \"rounds\": %d, \"sends\": %d, \
            \"wall_ms\": %.3f, \"sends_per_sec\": %.0f, \
            \"rounds_per_sec\": %.2f, \"peak_rss_kb\": %d, \
            \"round_p50_ms\": %.4f, \"round_p99_ms\": %.4f}%s\n"
           (json_escape r.r_workload) (json_escape r.r_algo) r.r_n r.r_delta
           r.r_domains r.r_rounds r.r_sends r.r_wall_ms
           (float_of_int r.r_sends /. secs)
           (float_of_int r.r_rounds /. secs)
           r.r_rss_kb r.r_round_p50_ms r.r_round_p99_ms
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let run ~quick ~out =
  Obs.enable ();
  let domain_legs =
    let d = Pool.default_domains () in
    if d > 1 then [ 1; d ] else [ 1 ]
  in
  let tree_sizes = if quick then [ 100_000 ] else [ 100_000; 1_000_000; 10_000_000 ] in
  let reg_sizes = if quick then [ 100_000 ] else [ 100_000; 1_000_000 ] in
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
      (* stream_regular's configuration-model rejection is hopeless at
         this scale; the permutation-cover family is the O(n d)
         near-regular stand-in. *)
      let g = Gen.stream_perm_regular ~seed:42 n reg_d in
      List.iter
        (fun domains ->
          push (measure ~workload:"perm-regular" ~algo:`Ii ~domains g);
          push (measure ~workload:"perm-regular" ~algo:`Dp ~domains g))
        domain_legs)
    reg_sizes;
  let identical = identity_check () in
  Printf.printf "domain identity (1 vs 4 domains, n=100000): %b\n%!" identical;
  emit_json ~path:out ~quick ~identical ~rows:(List.rev !rows);
  Printf.printf "wrote %s\n" out;
  if identical then 0 else 1
