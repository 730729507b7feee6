(* Benchmark entry point; see README.md.

     run.exe --workload W --seed S --seconds N --trace 0|1 [--toy]

   runs one workload in this fresh process and ends stdout with one
   JSON line: {"correct", "attempted", "failed", "metrics"}. The exit
   code is 0 only when every correctness check passed. Helper processes
   re-enter this executable as [run.exe --child ...]. *)

module Json = Ld_obs.Json
open Harness

let workloads =
  [
    ("thm1-cold", Thm1.cold);
    ("thm1-warm", Thm1.warm);
    ("runtime-1m", Runtime_1m.run);
    ("serve-verify", Serve_verify.run);
  ]

let usage () =
  Printf.eprintf
    "usage: run.exe --workload (%s) --seed N --seconds N --trace 0|1 [--toy]\n"
    (String.concat " | " (List.map fst workloads));
  exit 2

let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage ()

let child = function
  | [ "start" ] -> Json.Obj [ ("kernel_s", Json.Num (kernel ())) ]
  | [ "sweep"; m ] -> Thm1.sweep_child ~max_delta:(int_arg m) ~chrome:None
  | [ "sweep"; m; chrome ] -> Thm1.sweep_child ~max_delta:(int_arg m) ~chrome:(Some chrome)
  | [ "build-store"; m; dir ] -> Thm1.build_store_child ~max_delta:(int_arg m) ~dir
  | _ -> usage ()

let parse args =
  let rec go acc = function
    | [] -> acc
    | "--toy" :: rest -> go (("--toy", "") :: acc) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      go ((flag, value) :: acc) rest
    | _ -> usage ()
  in
  let kvs = go [] args in
  let get k = match List.assoc_opt k kvs with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let f =
    match List.assoc_opt workload workloads with Some f -> f | None -> usage ()
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s >= 0. -> s
    | _ -> usage ()
  in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  ( {
      workload;
      seed = int_arg (get "--seed");
      seconds;
      trace;
      toy = List.mem_assoc "--toy" kvs;
      scratch =
        Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ()));
    },
    f )

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: args -> print_endline (Render.render (child args))
  | args ->
    let ctx, f = parse args in
    let code =
      match
        mkdir_p ctx.scratch;
        Fun.protect
          ~finally:(fun () -> rm_rf ctx.scratch)
          (fun () ->
            f ctx;
            finish ctx)
      with
      | code -> code
      | exception e ->
        Printf.eprintf "benchmark: %s: %s\n%!" ctx.workload (Printexc.to_string e);
        1
    in
    exit code
