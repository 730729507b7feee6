(* `ld` — command-line front end for the linear-delta-local library.

   Subcommands:
     ld adversary  run the Section 4 lower-bound adversary
     ld pack       run a distributed maximal edge packing
     ld match      run a maximal matching baseline
     ld factor     compute a factor graph and loopiness
     ld order      sort tree addresses by the Appendix A canonical order
     ld stats      run the adversary and print the observability summary
     ld metrics    expose the metric registry in OpenMetrics text format
     ld top        live terminal dashboard over a running workload
     ld serve      certificate service over a length-prefixed JSON socket
     ld load       closed-loop load harness replaying verify requests
     ld bench-diff compare two bench artefacts, fail on regressions

   The static analyzer is its own executable, `ld_lint` (bin/ld_lint.ml):
   it is the one program that links compiler-libs, and `ld` does not,
   so `ld serve` does not map the compiler's pages.

   Every subcommand honours the global --trace FILE (Chrome trace-event
   export of the run, tid = domain) and -v/--verbosity (Logs). *)

open Cmdliner

module LB = Ld_core.Lower_bound
module Packing = Ld_matching.Packing
module Ec = Ld_models.Ec
module G = Ld_graph.Graph
module Gen = Ld_graph.Generators
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Colouring = Ld_models.Edge_colouring
module Id = Ld_models.Labelled.Id
module Obs = Ld_obs.Obs
module Json = Ld_obs.Json

(* ---- global observability/logging plumbing ----

   [common] carries the --trace target through every subcommand; the
   sink is enabled before the command body runs and the trace file is
   written after it returns (also on nonzero exits). *)

let setup_common trace level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level;
  (match trace with
  | Some _ -> Obs.enable ()
  | None -> ());
  trace

let common_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~docs:Manpage.s_common_options
          ~doc:
            "Record spans and counters and write a Chrome trace-event JSON \
             file to $(docv) (load it in Perfetto; tid = OCaml domain id).")
  in
  Term.(const setup_common $ trace_arg $ Logs_cli.level ())

let with_common trace f =
  let code = f () in
  (match trace with
  | Some path ->
    Ld_obs.Trace.write ~path;
    Logs.app (fun m -> m "wrote Chrome trace to %s" path)
  | None -> ());
  code

let family_conv =
  let parse s =
    if List.mem_assoc s Gen.bench_families then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown family %S (choose from: %s)" s
             (String.concat ", " (List.map fst Gen.bench_families))))
  in
  Arg.conv (parse, Format.pp_print_string)

let make_graph family ~seed ~n ~delta =
  (List.assoc family Gen.bench_families) ~seed ~n ~delta

let family_arg =
  Arg.(value & opt family_conv "spider" & info [ "family" ] ~doc:"Graph family.")

let n_arg = Arg.(value & opt int 30 & info [ "nodes" ] ~doc:"Number of nodes.")
let delta_arg = Arg.(value & opt int 6 & info [ "delta" ] ~doc:"Maximum degree.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let algo_arg =
  Arg.(
    value
    & opt (enum [ ("greedy", `Greedy); ("proposal", `Proposal) ]) `Greedy
    & info [ "algo" ] ~doc:"Packing algorithm: $(b,greedy) or $(b,proposal).")

let truncate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "truncate" ] ~doc:"Truncate the algorithm to this many rounds.")

(* ---- adversary ---- *)

let algorithm_of = function
  | `Greedy -> Packing.greedy_algorithm
  | `Proposal -> Packing.proposal_algorithm

let adversary common delta algo truncate verbose =
  with_common common @@ fun () ->
  let algorithm =
    match truncate with
    | Some r -> Packing.truncated algo r
    | None -> algorithm_of algo
  in
  Logs.info (fun m ->
      m "running Section 4 adversary: delta=%d vs %s" delta
        algorithm.Packing.name);
  Printf.printf "adversary: delta=%d vs %s\n" delta algorithm.Packing.name;
  match LB.run ~delta algorithm with
  | LB.Certified certs ->
    Printf.printf
      "CERTIFIED: %d levels — the algorithm needs more than %d rounds.\n"
      (List.length certs) (delta - 2);
    if verbose then List.iter (Format.printf "%a@." LB.pp_certificate) certs;
    0
  | LB.Refuted (certs, f) ->
    Printf.printf "REFUTED after %d certified levels:\n" (List.length certs);
    Format.printf "%a@." LB.pp_failure f;
    if verbose then Format.printf "graph: %a@." Ec.pp f.LB.fail_graph;
    0

let adversary_cmd =
  (* [-v] now belongs to the global Logs verbosity. *)
  let verbose =
    Arg.(value & flag & info [ "certificates" ] ~doc:"Print every certificate.")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Run the Section 4 unfold-and-mix lower-bound adversary.")
    Term.(
      const adversary $ common_term $ delta_arg $ algo_arg $ truncate_arg
      $ verbose)

(* ---- pack ---- *)

let pack common family n delta seed algo truncate =
  with_common common @@ fun () ->
  let g = make_graph family ~seed ~n ~delta in
  let ec = Colouring.ec_of_simple g in
  Printf.printf "%s: n=%d m=%d delta=%d, %d colours\n" family (G.n g) (G.m g)
    (G.max_degree g) (Ec.max_colour ec);
  let y, rounds =
    match algo with
    | `Greedy ->
      let r =
        match truncate with
        | Some t -> Stdlib.min t (Packing.greedy_rounds ec)
        | None -> Packing.greedy_rounds ec
      in
      (Packing.greedy_by_colour ?truncate ec, r)
    | `Proposal -> Packing.proposal ?truncate ec
  in
  Printf.printf "rounds=%d total=%s fm=%b maximal=%b ratio=%s\n" rounds
    (Q.to_string (Fm.total y)) (Fm.is_fm y) (Fm.is_maximal_fm y)
    (if G.m g = 0 then "-" else Q.to_string (Ld_fm.Maximum.ratio y));
  0

let pack_cmd =
  Cmd.v
    (Cmd.info "pack" ~doc:"Run a distributed maximal edge packing.")
    Term.(
      const pack $ common_term $ family_arg $ n_arg $ delta_arg $ seed_arg
      $ algo_arg $ truncate_arg)

(* ---- match ---- *)

let run_match ~seed g = function
  | `Ec ->
    let ec = Colouring.ec_of_simple g in
    let r = Ld_matching.Mm_ec.greedy ec in
    Printf.printf "ec-greedy: rounds=%d size=%d maximal=%b\n" r.rounds
      (List.length r.matched_edges)
      (Ld_matching.Mm_ec.is_maximal ec r)
  | `Ii ->
    let r = Ld_matching.Israeli_itai.run ~seed ~max_rounds:100000 (Id.trivial g) in
    let size =
      Array.fold_left (fun a m -> if m <> None then a + 1 else a) 0 r.mate / 2
    in
    Printf.printf "israeli-itai: rounds=%d size=%d maximal=%b\n" r.rounds size
      (Ld_matching.Israeli_itai.is_maximal g r)
  | `Pr ->
    let csr = Ld_graph.Csr.of_graph g ~colour:(Colouring.greedy g) in
    let r, _ = Ld_matching.Packed_pr.run csr in
    let size =
      Array.fold_left (fun a w -> if w >= 0 then a + 1 else a) 0 r.mate / 2
    in
    Printf.printf "panconesi-rizzi: rounds=%d (cv=%d) size=%d maximal=%b\n"
      r.rounds r.cv_iterations size
      (Ld_matching.Packed_pr.is_maximal csr r)

let match_ common family n delta seed which =
  with_common common @@ fun () ->
  let g = make_graph family ~seed ~n ~delta in
  let limit = Ld_matching.Israeli_itai.max_degree in
  if which = `Ii && G.max_degree g > limit then begin
    Printf.eprintf
      "ld match: israeli-itai accepts max degree <= %d, this graph has %d\n"
      limit (G.max_degree g);
    2
  end
  else begin
    Printf.printf "%s: n=%d m=%d delta=%d\n" family (G.n g) (G.m g)
      (G.max_degree g);
    run_match ~seed g which;
    0
  end

let match_cmd =
  let which =
    Arg.(
      value
      & opt (enum [ ("ec", `Ec); ("israeli-itai", `Ii); ("panconesi-rizzi", `Pr) ]) `Pr
      & info [ "algo" ] ~doc:"$(b,ec), $(b,israeli-itai) or $(b,panconesi-rizzi).")
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Run a maximal matching baseline.")
    Term.(
      const match_ $ common_term $ family_arg $ n_arg $ delta_arg $ seed_arg
      $ which)

(* ---- factor ---- *)

let factor common family n delta seed =
  with_common common @@ fun () ->
  let g = make_graph family ~seed ~n ~delta in
  let ec = Colouring.ec_of_simple g in
  let fg, _ = Ld_cover.Factor.factor ec in
  Format.printf "graph: n=%d, factor graph:@.%a@." (G.n g) Ec.pp fg;
  Printf.printf "loopiness (Definition 1): %d\n" (Ld_cover.Loopy.loopiness ec);
  0

let factor_cmd =
  Cmd.v
    (Cmd.info "factor" ~doc:"Compute the factor graph and loopiness.")
    Term.(const factor $ common_term $ family_arg $ n_arg $ delta_arg $ seed_arg)

(* ---- order ---- *)

let order_demo common words =
  with_common common @@ fun () ->
  let module O = Ld_order.Tree_order in
  let parse w =
    (* e.g. "+1-2+3": alternating sign and colour *)
    let rec go i acc =
      if i >= String.length w then List.rev acc
      else begin
        let fwd =
          match w.[i] with
          | '+' -> true
          | '-' -> false
          | _ -> invalid_arg "address syntax: use e.g. +1-2+3"
        in
        let j = ref (i + 1) in
        while !j < String.length w && w.[!j] >= '0' && w.[!j] <= '9' do
          incr j
        done;
        let colour = int_of_string (String.sub w (i + 1) (!j - i - 1)) in
        go !j ({ O.fwd; colour } :: acc)
      end
    in
    O.normalize (go 0 [])
  in
  let addresses = List.map parse words in
  let sorted = O.sort_nodes addresses in
  Format.printf "canonical order:@.";
  List.iter (fun a -> Format.printf "  %a@." O.pp a) sorted;
  0

let order_cmd =
  let words =
    Arg.(
      value
      & pos_all string [ "+1"; "-1"; "+2"; "-2"; "+1+2"; "+1-2"; "" ]
      & info [] ~docv:"ADDR" ~doc:"Tree addresses like $(b,+1-2+3).")
  in
  Cmd.v
    (Cmd.info "order"
       ~doc:"Sort tree addresses by the Appendix A canonical order.")
    Term.(const order_demo $ common_term $ words)

(* ---- report ---- *)

let report common delta algo truncate output =
  with_common common @@ fun () ->
  let algorithm =
    match truncate with
    | Some r -> Packing.truncated algo r
    | None -> algorithm_of algo
  in
  let outcome = LB.run ~delta algorithm in
  let doc =
    Ld_core.Report.markdown ~delta ~algorithm_name:algorithm.Packing.name outcome
  in
  (match output with
  | None -> print_string doc
  | Some path ->
    let oc = open_out path in
    output_string oc doc;
    close_out oc;
    Printf.printf "report written to %s\n" path);
  0

let report_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the Markdown report to this file.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a full adversary run as a Markdown report.")
    Term.(
      const report $ common_term $ delta_arg $ algo_arg $ truncate_arg $ output)

(* ---- dot ---- *)

let dot common family n delta seed kind =
  with_common common @@ fun () ->
  let g = make_graph family ~seed ~n ~delta in
  (match kind with
  | `Simple -> print_string (Ld_models.Dot.simple g)
  | `Ec -> print_string (Ld_models.Dot.ec (Colouring.ec_of_simple g))
  | `Po ->
    print_string (Ld_models.Dot.po (Ld_models.Po.of_ec (Colouring.ec_of_simple g)))
  | `Factor ->
    let fg, _ = Ld_cover.Factor.factor (Colouring.ec_of_simple g) in
    print_string (Ld_models.Dot.ec fg));
  0

let dot_cmd =
  let kind =
    Arg.(
      value
      & opt
          (enum
             [ ("simple", `Simple); ("ec", `Ec); ("po", `Po); ("factor", `Factor) ])
          `Ec
      & info [ "as" ] ~doc:"$(b,simple), $(b,ec), $(b,po) or $(b,factor).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT for a generated graph.")
    Term.(
      const dot $ common_term $ family_arg $ n_arg $ delta_arg $ seed_arg $ kind)

(* ---- certify / verify ---- *)

let certify common delta algo output =
  with_common common @@ fun () ->
  let algorithm = algorithm_of algo in
  match LB.run ~delta algorithm with
  | LB.Refuted (_, f) ->
    Format.printf "cannot certify: %a@." LB.pp_failure f;
    1
  | LB.Certified certs ->
    Ld_core.Certificate_io.save output certs;
    Printf.printf "%d certificates (delta=%d, %s) written to %s\n"
      (List.length certs) delta algorithm.Packing.name output;
    0

let certify_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Certificate file to write.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Run the adversary and export the certificate chain to a file.")
    Term.(const certify $ common_term $ delta_arg $ algo_arg $ output)

let verify common delta algo input =
  with_common common @@ fun () ->
  let algorithm = Option.map algorithm_of algo in
  match Ld_core.Certificate_io.load input with
  | exception Failure msg ->
    Printf.printf "verification FAILED: %s\n" msg;
    1
  | certs ->
    let checks = Ld_core.Certificate_io.verify ?algorithm ~delta certs in
    List.iter (Format.printf "  %a@." Ld_core.Certificate_io.pp_check) checks;
    if List.for_all Ld_core.Certificate_io.check_ok checks then begin
      Printf.printf
        "VERIFIED: %d levels — any algorithm producing these outputs needs \
         more than %d rounds.\n"
        (List.length checks)
        (List.fold_left (fun a c -> max a c.Ld_core.Certificate_io.chk_level) (-1) checks);
      0
    end
    else begin
      Printf.printf "verification FAILED\n";
      1
    end

let verify_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Certificate file to check.")
  in
  let algo_opt =
    Arg.(
      value
      & opt (some (enum [ ("greedy", `Greedy); ("proposal", `Proposal) ])) None
      & info [ "algo" ]
          ~doc:"Also re-run this algorithm and compare the claimed outputs.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Independently re-verify a certificate file from scratch.")
    Term.(const verify $ common_term $ delta_arg $ algo_opt $ input)

(* ---- stats ---- *)

let stats common delta algo frontier tree level json =
  (* The summary needs the sink on even without --trace. *)
  Obs.enable ();
  with_common common @@ fun () ->
  let base_algo = algorithm_of algo in
  Logs.info (fun m ->
      m "stats: delta=%d algo=%s frontier=%b" delta base_algo.Packing.name
        frontier);
  let cache = LB.build_cache ~delta base_algo in
  let outcome = LB.cache_outcome cache in
  if not json then
    (match outcome with
    | LB.Certified certs ->
      Printf.printf "adversary: delta=%d vs %s — CERTIFIED %d levels\n" delta
        base_algo.Packing.name (List.length certs)
    | LB.Refuted (certs, f) ->
      Printf.printf
        "adversary: delta=%d vs %s — REFUTED at level %d (%d certified)\n"
        delta base_algo.Packing.name f.LB.fail_level (List.length certs));
  if frontier then begin
    (* Replay the memoised construction against every truncation, as the
       bench's frontier scan does — analytically when the base is greedy
       (colour-prefix thresholds, no algorithm re-runs), by re-running
       probes otherwise. The memo counters below show the hit/refute
       behaviour either way. *)
    let rec scan r =
      if r > (2 * delta) + 2 then None
      else
        let verdict =
          match algo with
          | `Greedy -> LB.truncated_verdict cache ~rounds:r
          | `Proposal -> (
            match LB.cached_run cache (Packing.truncated `Proposal r) with
            | LB.Certified _ -> `Certified
            | LB.Refuted _ -> `Refuted)
        in
        match verdict with
        | `Certified -> Some r
        | `Refuted -> scan (r + 1)
    in
    match scan 0 with
    | Some r ->
      if not json then
        Printf.printf "frontier: smallest surviving truncation r* = %d\n" r
    | None ->
      if not json then
        Printf.printf "frontier: no truncation survives within 2*delta+2\n"
  end;
  if json then begin
    (* One top-level object: the adversary outcome plus the whole
       span/counter/histogram summary, machine-readable. *)
    let outcome_str, levels =
      match outcome with
      | LB.Certified certs -> ("certified", List.length certs)
      | LB.Refuted (certs, _) -> ("refuted", List.length certs)
    in
    print_endline
      (Json.render
         (Json.Obj
            [
              ("delta", Json.int delta);
              ("algo", Json.Str base_algo.Packing.name);
              ("outcome", Json.Str outcome_str);
              ("certified_levels", Json.int levels);
              ("summary", Ld_obs.Summary.json ());
            ]))
  end
  else begin
    Printf.printf "\n";
    (match level with
    | Some i -> Format.printf "%a@." (Ld_obs.Summary.pp_level ~level:i) ()
    | None -> Format.printf "%a@." Ld_obs.Summary.pp ());
    if tree then Format.printf "%a@." Ld_obs.Summary.pp_tree ()
  end;
  0

let stats_cmd =
  let frontier =
    Arg.(
      value & opt bool true
      & info [ "frontier" ]
          ~doc:"Also replay the memoised frontier scan (exercises the cache).")
  in
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ] ~doc:"Print the span tree of the main domain as well.")
  in
  let level =
    Arg.(
      value
      & opt (some int) None
      & info [ "level" ]
          ~doc:
            "Restrict the span table to one adversary level: only spans \
             inside the core.lb.level span carrying this level index \
             (probe fan-out included).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object (outcome, spans, counters, gauges, \
             histogram quantiles) instead of the text tables.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the adversary with the observability sink enabled and print \
          the span/counter summary table.")
    Term.(
      const stats $ common_term $ delta_arg $ algo_arg $ frontier $ tree
      $ level $ json)

(* ---- metrics ---- *)

let metrics common delta algo serve loop =
  Obs.enable ();
  with_common common @@ fun () ->
  let algorithm = algorithm_of algo in
  let run_workload () = ignore (LB.run ~delta algorithm : LB.outcome) in
  match serve with
  | None ->
    run_workload ();
    print_string (Ld_obs.Openmetrics.render ());
    0
  | Some port ->
    (* Long-running exporter: keep the numeric instruments recording
       but stop span events so buffers don't grow without bound. *)
    Obs.set_span_recording false;
    run_workload ();
    if loop then
      ignore
        (Domain.spawn (fun () ->
             while true do
               run_workload ()
             done)
          : unit Domain.t);
    Logs.app (fun m ->
        m "serving OpenMetrics on http://127.0.0.1:%d/metrics" port);
    Ld_obs.Openmetrics.serve ~port (fun () -> Ld_obs.Openmetrics.render ());
    0

let metrics_cmd =
  let serve =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ] ~docv:"PORT"
          ~doc:
            "Serve GET /metrics over HTTP on $(docv) instead of printing \
             one scrape; each scrape re-renders the live registry.")
  in
  let loop =
    Arg.(
      value & flag
      & info [ "loop" ]
          ~doc:
            "With $(b,--serve): keep re-running the adversary workload in \
             a background domain so scrapes see a moving system.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the adversary workload and expose every counter, gauge and \
          latency histogram in OpenMetrics (Prometheus) text format — \
          counters as _total, histograms as cumulative _bucket/_sum/_count \
          families in seconds.")
    Term.(const metrics $ common_term $ delta_arg $ algo_arg $ serve $ loop)

(* ---- top ---- *)

let top common delta algo interval frames =
  Obs.enable ();
  (* Dashboard sampling wants rates and quantiles, not an ever-growing
     event log. *)
  Obs.set_span_recording false;
  with_common common @@ fun () ->
  let algorithm = algorithm_of algo in
  let stop = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (LB.run ~delta algorithm : LB.outcome)
        done)
  in
  let clear = Unix.isatty Unix.stdout in
  let prev = ref (Obs.Counter.snapshot_all ()) in
  let prev_t = ref (Obs.now_ms ()) in
  let lookup snap name =
    match List.assoc_opt name snap with Some v -> v | None -> 0
  in
  for frame = 1 to frames do
    Unix.sleepf interval;
    let now = Obs.Counter.snapshot_all () in
    let t = Obs.now_ms () in
    let dt = Stdlib.max 1e-9 ((t -. !prev_t) /. 1000.) in
    let deltas = Obs.Counter.diff !prev now in
    let rate name = float_of_int (lookup deltas name) /. dt in
    if clear then print_string "\027[2J\027[H";
    Printf.printf "ld top — frame %d/%d  every %.1fs  (delta=%d vs %s)\n"
      frame frames interval delta algorithm.Packing.name;
    let hits = lookup now "core.lb.memo_replay_hits" in
    let probes = lookup now "core.lb.probes" in
    let memo_ratio =
      if hits + probes = 0 then 0.
      else float_of_int hits /. float_of_int (hits + probes)
    in
    Printf.printf
      "  refine rounds/s %10.0f    probes/s %10.0f    sends/s %10.0f\n"
      (rate "cover.refine.rounds")
      (rate "core.lb.probes")
      (rate "runtime.ec.sends" +. rate "runtime.po.sends"
      +. rate "runtime.packed.sends");
    Printf.printf "  memo hit ratio  %10.3f    pool tasks/s %6.0f%s\n"
      memo_ratio
      (rate "core.pool.tasks")
      (match Obs.peak_rss_kb () with
      | Some kb -> Printf.sprintf "    peak RSS %d kB" kb
      | None -> "");
    let lat = Ld_obs.Hist.snapshots () in
    if lat <> [] then begin
      Printf.printf "  %-28s %10s %10s %10s %10s\n" "latency" "count"
        "p50 ms" "p99 ms" "max ms";
      List.iter
        (fun sn ->
          Printf.printf "  %-28s %10d %10.3f %10.3f %10.3f\n"
            sn.Ld_obs.Hist.sn_name sn.Ld_obs.Hist.sn_count
            (Ld_obs.Hist.quantile_ms sn 0.5)
            (Ld_obs.Hist.quantile_ms sn 0.99)
            (Ld_obs.Hist.max_ms sn))
        lat
    end;
    (* Busiest counters this frame, by increment. *)
    let top_deltas =
      List.sort (fun (_, a) (_, b) -> Int.compare b a) deltas
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    (match take 5 top_deltas with
    | [] -> ()
    | busiest ->
      Printf.printf "  busiest counters (+/frame):\n";
      List.iter
        (fun (name, d) -> Printf.printf "    %-40s +%d\n" name d)
        busiest);
    flush stdout;
    prev := now;
    prev_t := t
  done;
  Atomic.set stop true;
  Domain.join worker;
  0

let top_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between dashboard frames.")
  in
  let frames =
    Arg.(
      value & opt int 10
      & info [ "frames" ] ~docv:"N" ~doc:"Stop after $(docv) frames.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the adversary workload on a background domain and sample the \
          metric registry live: refine rounds/s, probe and send rates, \
          memoisation hit ratio, latency quantiles and peak RSS, with \
          per-frame deltas.")
    Term.(const top $ common_term $ delta_arg $ algo_arg $ interval $ frames)

(* ---- bench-diff ---- *)

let bench_diff common old_path new_path tolerance normalize min_wall_ms =
  with_common common @@ fun () ->
  match Ld_obs.Bench_diff.tolerance_of_string tolerance with
  | None ->
    Printf.eprintf
      "ld bench-diff: bad --tolerance %S (expected e.g. 1.5x, > 1)\n"
      tolerance;
    2
  | Some tolerance -> (
    match
      Ld_obs.Bench_diff.compare_files ~tolerance ~normalize ~min_wall_ms
        ~old_path ~new_path ()
    with
    | Error e ->
      Printf.eprintf "ld bench-diff: %s\n" e;
      2
    | Ok report ->
      print_string (Ld_obs.Bench_diff.render report);
      Ld_obs.Bench_diff.exit_code report)

let bench_diff_cmd =
  let old_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench artefact (JSON).")
  in
  let new_path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench artefact (JSON).")
  in
  let tolerance =
    Arg.(
      value & opt string "1.5x"
      & info [ "tolerance" ] ~docv:"RATIO"
          ~doc:
            "Fail when new wall time exceeds old by more than this factor \
             (e.g. $(b,1.5x)).")
  in
  let normalize =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:
            "Divide every ratio by the median ratio first: cancels a \
             uniform machine-speed difference between the two runs, keeps \
             selective per-row regressions visible.")
  in
  let min_wall_ms =
    Arg.(
      value & opt float 1.0
      & info [ "min-wall-ms" ] ~docv:"MS"
          ~doc:
            "Ignore rows whose baseline wall time is below $(docv) — too \
             noisy to gate on.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Join two bench artefacts (BENCH_THM1.json / BENCH_RUNTIME.json \
          shape) on their key columns and compare per-row wall time. Exits \
          1 if any compared row regressed beyond the tolerance, 2 if the \
          files cannot be compared at all; rows present in only one file \
          are reported but never fail.")
    Term.(
      const bench_diff $ common_term $ old_path $ new_path $ tolerance
      $ normalize $ min_wall_ms)

(* ---- serve / load ---- *)

let serve common port store_dir no_store max_delta preload metrics_port =
  with_common common @@ fun () ->
  Serve.run ~port ~store_dir ~no_store ~max_delta ~preload ~metrics_port ()

let port_arg =
  Arg.(
    value & opt int 7421
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent certificate store directory (default: $(b,LD_STORE), \
           else ~/.cache/ld).")

let serve_cmd =
  let no_store =
    Arg.(
      value & flag
      & info [ "no-store" ]
          ~doc:"Run purely in memory; do not touch the persistent store.")
  in
  let max_delta =
    Arg.(
      value & opt int 20
      & info [ "max-delta" ] ~docv:"DELTA"
          ~doc:"Reject requests above this delta.")
  in
  let preload =
    Arg.(
      value
      & opt (some int) None
      & info [ "preload" ] ~docv:"DELTA"
          ~doc:
            "Before accepting clients, build (or warm-load) the \
             constructions for delta=2..$(docv), fanned out over the \
             domain pool.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"Also serve GET /metrics (OpenMetrics) on $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running certificate service: batched probe/verify/frontier \
          requests over a length-prefixed JSON protocol, one shared memo \
          cache across connections, constructions persisted in the \
          content-addressed store so restarts are warm.")
    Term.(
      const serve $ common_term $ port_arg $ store_dir_arg $ no_store
      $ max_delta $ preload $ metrics_port)

let load common port conns batch requests max_delta skew seed quick out
    shutdown =
  with_common common @@ fun () ->
  Load.run ~port ~conns ~batch ~requests ~max_delta ~skew ~seed ~quick ~out
    ~shutdown ()

let load_cmd =
  let conns =
    Arg.(
      value & opt int 8
      & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Requests per frame.")
  in
  let requests =
    Arg.(
      value & opt int 1_000_000
      & info [ "requests" ] ~docv:"N" ~doc:"Total verify requests to send.")
  in
  let max_delta =
    Arg.(
      value & opt int 8
      & info [ "max-delta" ] ~docv:"DELTA"
          ~doc:"Largest delta in the request mix.")
  in
  let skew =
    Arg.(
      value & opt float 1.0
      & info [ "skew" ] ~docv:"ALPHA"
          ~doc:
            "Key-skew exponent: delta is drawn with weight \
             1/(delta-1)^$(docv); 0 = uniform.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (splitmix64).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI smoke: cap at 100k requests over 4 connections.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_SERVE.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the JSON artefact.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the server to exit after the run (CI convenience).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Closed-loop load harness for $(b,ld serve): replay millions of \
          skewed verification requests over concurrent connections and \
          write throughput, latency quantiles, hit ratios and peak RSS to \
          a bench-diff-joinable JSON artefact.")
    Term.(
      const load $ common_term $ port_arg $ conns $ batch $ requests
      $ max_delta $ skew $ seed $ quick $ out $ shutdown)

(* ---- bench-runtime ---- *)

let bench_runtime common quick out =
  with_common common @@ fun () -> Bench_runtime.run ~quick ~out

let bench_runtime_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI smoke: only the $(b,10^5)-node legs plus the domain \
                identity check.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_RUNTIME.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the JSON artefact.")
  in
  Cmd.v
    (Cmd.info "bench-runtime"
       ~doc:
         "Mega-scale packed-runtime throughput bench: streaming CSR \
          instances at $(b,10^5)..$(b,10^7) nodes through the packed \
          matching workloads, reporting sends/sec, rounds/sec, wall time \
          and peak RSS per row. Exits nonzero if the 1-domain and \
          multi-domain runs disagree.")
    Term.(const bench_runtime $ common_term $ quick $ out)

let main_cmd =
  Cmd.group
    (Cmd.info "ld" ~version:"1.0.0"
       ~doc:
         "Linear-in-Delta lower bounds in the LOCAL model — executable \
          reproduction of Goos, Hirvonen, Suomela (PODC 2014).")
    [ adversary_cmd; pack_cmd; match_cmd; factor_cmd; order_cmd; report_cmd; dot_cmd;
      certify_cmd; verify_cmd; stats_cmd; metrics_cmd; top_cmd; serve_cmd;
      load_cmd; bench_diff_cmd; bench_runtime_cmd ]

let () = exit (Cmd.eval' main_cmd)
