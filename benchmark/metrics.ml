(* Every metric the benchmark reports, with its unit, in BENCHMARK.json
   order. A --trace 0 run prints each end-to-end metric and a --trace 1
   run each per-layer metric, on every workload; a layer that a
   workload does not exercise reads 0. The smoke rule in ./dune checks
   both lists against BENCHMARK.json. README.md maps each per-layer
   metric to its layer, its workload and the end-to-end metric it
   should move. *)

let end_to_end = [ ("setup_s", "s"); ("work_s", "s"); ("peak_rss_mb", "MB") ]

(* Both THM1 workloads certify delta = 2 .. thm1_max_delta; their five
   largest rows carry most of the cost. *)
let thm1_max_delta = 14
let row_deltas = List.init 5 (fun i -> thm1_max_delta - 4 + i)
let row_metric delta = Printf.sprintf "lb.row_s.d%d" delta

(* runtime-1m legs: (leg, algorithm, graph, domains). *)
let legs =
  [
    ("ii_tree", `Ii, `Tree, 1);
    ("dp_tree", `Dp, `Tree, 1);
    ("pr_tree", `Pr, `Prefix, 1);
    ("ii_tree_2", `Ii, `Tree, 2);
  ]

let leg_names = List.map (fun (name, _, _, _) -> name) legs

let per_layer =
  [
    ("lb.probe_ms", "ms");
    ("matching.greedy_self_ms", "ms");
    ("runtime.ec_run_self_ms", "ms");
    ("runtime.ec_rounds", "count");
    ("runtime.ec_darts_scanned", "count");
    ("runtime.ec_sends", "count");
    ("lb.unfold_ms", "ms");
    ("lb.mix_ms", "ms");
    ("lb.level_self_ms", "ms");
    ("cover.views_ms", "ms");
    ("cover.refine_rounds", "count");
    ("cover.intern_lookups", "count");
    ("cover.intern_hit_ratio", "ratio");
    ("fm.feasibility_ms", "ms");
  ]
  @ List.map (fun d -> (row_metric d, "s")) row_deltas
  @ [
      ("pool.workers_spawned", "count");
      ("pool.join_idle_ms", "ms");
      ("pool.map_self_ms", "ms");
      ("gc.minor_mwords", "Mwords");
      ("gc.promoted_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
      ("store.get_ms", "ms");
      ("store.bytes_read", "B");
      ("codec.decode_ms", "ms");
      ("lb.assemble_ms", "ms");
      ("lb.frontier_verdict_ms", "ms");
      ("lb.build_ms", "ms");
      ("store.save_ms", "ms");
      ("store.bytes_written", "B");
      ("graph.gen_tree_ms", "ms");
    ]
  @ List.concat_map
      (fun leg ->
        [
          ("matching." ^ leg ^ "_ms", "ms");
          ("matching." ^ leg ^ "_rounds", "count");
          ("matching." ^ leg ^ "_sends", "count");
          ("runtime.packed_round_p50_ms." ^ leg, "ms");
          ("runtime.packed_round_p99_ms." ^ leg, "ms");
          ("mem.leg_peak_rss_mb." ^ leg, "MB");
        ])
      leg_names
  @ [
      ("serve.batch_p50_ms", "ms");
      ("serve.batch_p99_ms", "ms");
      ("serve.batch_busy_frac", "frac");
      ("serve.request_p50_us", "us");
      ("wire.transport_p50_ms", "ms");
      ("serve.verdict_memo_hit_ratio", "ratio");
      ("serve.cache_builds", "count");
      ("client.encode_us_per_batch", "us");
      ("client.decode_us_per_batch", "us");
      ("client.rtt_p50_ms", "ms");
      ("client.rtt_p999_ms", "ms");
      ("client.batches", "count");
      ("par.speedup_2way", "x");
      ("obs.trace_overhead_frac", "frac");
    ]
