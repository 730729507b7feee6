(* `ld` — command-line front end for the linear-delta-local library.

   Subcommands:
     ld adversary  run the Section 4 lower-bound adversary; --format
                   text|markdown|json|openmetrics prints the verdict, a
                   Markdown report, the JSON metric summary or an
                   OpenMetrics scrape of the run
     ld pack       run a distributed maximal edge packing
     ld match      run a maximal matching baseline
     ld factor     compute a factor graph and loopiness
     ld order      sort tree addresses by the Appendix A canonical order
     ld dot        emit Graphviz DOT for a generated graph
     ld certify    export the adversary's certificate chain to a file
     ld verify     re-verify a certificate file from scratch
     ld serve      certificate service over a length-prefixed JSON socket
     ld load       closed-loop load harness replaying verify requests
     ld bench-diff compare two bench artefacts, fail on regressions
     ld bench-runtime  packed-runtime throughput bench

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

(* One run, four renderings. The JSON and OpenMetrics formats read the
   metric registry, so they turn the sink on even without --trace. *)
let adversary common delta algo truncate format =
  (match format with
  | `Json | `Openmetrics -> Obs.enable ()
  | `Text | `Markdown -> ());
  with_common common @@ fun () ->
  let algorithm =
    match truncate with
    | Some r -> Packing.truncated algo r
    | None -> algorithm_of algo
  in
  let name = algorithm.Packing.name in
  Logs.info (fun m ->
      m "running Section 4 adversary: delta=%d vs %s" delta name);
  let outcome = LB.run ~delta algorithm in
  let certs, verdict =
    match outcome with
    | LB.Certified certs -> (certs, "certified")
    | LB.Refuted (certs, _) -> (certs, "refuted")
  in
  (match format with
  | `Text -> (
    Printf.printf "adversary: delta=%d vs %s\n" delta name;
    match outcome with
    | LB.Certified _ ->
      Printf.printf
        "CERTIFIED: %d levels — the algorithm needs more than %d rounds.\n"
        (List.length certs) (delta - 2)
    | LB.Refuted (_, f) ->
      Printf.printf "REFUTED after %d certified levels:\n" (List.length certs);
      Format.printf "%a@." LB.pp_failure f)
  | `Markdown ->
    print_string (Ld_core.Report.markdown ~delta ~algorithm_name:name outcome)
  | `Json ->
    print_endline
      (Json.render
         (Json.Obj
            [
              ("delta", Json.int delta);
              ("algo", Json.Str name);
              ("outcome", Json.Str verdict);
              ("certified_levels", Json.int (List.length certs));
              ("summary", Ld_obs.Summary.json ());
            ]))
  | `Openmetrics -> print_string (Ld_obs.Openmetrics.render ()));
  0

let adversary_cmd =
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("text", `Text);
               ("markdown", `Markdown);
               ("json", `Json);
               ("openmetrics", `Openmetrics);
             ])
          `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,text) (the verdict), $(b,markdown) (a report with every \
             certificate), $(b,json) (the verdict plus the span, counter, \
             gauge and histogram summary) or $(b,openmetrics) (every \
             counter, gauge and latency histogram in OpenMetrics text).")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Run the Section 4 unfold-and-mix lower-bound adversary.")
    Term.(
      const adversary $ common_term $ delta_arg $ algo_arg $ truncate_arg
      $ format)

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
    let csr = Ld_graph.Csr.greedy g in
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
  let cache = LB.build_cache ~delta algorithm in
  match LB.cache_outcome cache with
  | LB.Refuted (_, f) ->
    Format.printf "cannot certify: %a@." LB.pp_failure f;
    1
  | LB.Certified certs ->
    Ld_core.Certificate_io.save output cache;
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
  match Ld_core.Certificate_io.load ~delta input with
  | exception (Failure msg | Sys_error msg) ->
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
            "Fail when a row's new wall time, or its new init time where \
             both files carry $(b,init_ms), exceeds the old by more than \
             this factor (e.g. $(b,1.5x)).")
  in
  let normalize =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:
            "Divide every ratio by its column's median ratio first: \
             cancels a uniform machine-speed difference between the two \
             runs, keeps selective per-row regressions visible.")
  in
  let min_wall_ms =
    Arg.(
      value & opt float 1.0
      & info [ "min-wall-ms" ] ~docv:"MS"
          ~doc:
            "Ignore rows whose baseline wall (or init) time is below \
             $(docv) — too noisy to gate on.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Join two bench artefacts (BENCH_THM1.json / BENCH_RUNTIME.json \
          shape) on their key columns and compare per-row wall time, and \
          init time where both rows carry $(b,init_ms). Exits \
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
          ~doc:"Also serve GET /metrics (OpenMetrics) on 127.0.0.1:$(docv).")
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
  let exits =
    Cmd.Exit.info 1 ~doc:"when some request failed."
    :: Cmd.Exit.info 2
         ~doc:
           "when no server answers on the port, or it refuses a warmup probe \
            (for example a delta above its $(b,--max-delta)); one line on \
            standard error says which."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "load" ~exits
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
    [ adversary_cmd; pack_cmd; match_cmd; factor_cmd; order_cmd; dot_cmd;
      certify_cmd; verify_cmd; serve_cmd; load_cmd; bench_diff_cmd;
      bench_runtime_cmd ]

let () = exit (Cmd.eval' main_cmd)
