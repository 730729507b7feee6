(* `dune runtest` smoke check: runs thm1-cold, thm1-warm and runtime-1m
   at toy size (delta <= 6, n = 10^4), untraced and traced, and checks
   that each run passes its correctness checks and ends stdout with a
   summary line that Ld_obs.Json parses and that names exactly the
   metrics, with the units, BENCHMARK.json declares. serve-verify is
   left out because it starts a server.

     smoke.exe BENCHMARK.json run.exe *)

module Json = Ld_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt

let declared spec kind =
  match Option.bind (Json.member kind spec) Json.to_list with
  | None -> fail "BENCHMARK.json has no %s list" kind
  | Some ms ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> fail "malformed %s entry" kind)
      ms

let run_exe exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, out)
  | _ -> (-1, out)

let () =
  if Array.length Sys.argv <> 3 then fail "usage: smoke.exe BENCHMARK.json run.exe";
  let spec = Json.parse_file Sys.argv.(1) in
  let exe =
    let e = Sys.argv.(2) in
    if Filename.is_implicit e then Filename.concat Filename.current_dir_name e else e
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, kind) ->
          let what = Printf.sprintf "%s --trace %s" workload trace in
          let code, out =
            run_exe exe
              [ "--workload"; workload; "--seed"; "7"; "--seconds"; "0"; "--trace"; trace; "--toy" ]
          in
          if code <> 0 then fail "%s exited with %d" what code;
          let last =
            match List.rev (String.split_on_char '\n' (String.trim out)) with
            | l :: _ -> l
            | [] -> fail "%s printed nothing" what
          in
          let summary =
            match Json.parse last with
            | v -> v
            | exception Json.Parse_error (msg, pos) ->
              fail "%s: last line is not JSON (%s at %d)" what msg pos
          in
          let keys = match summary with Json.Obj kvs -> List.map fst kvs | _ -> [] in
          if not (List.equal String.equal keys [ "correct"; "attempted"; "failed"; "metrics" ])
          then fail "%s: summary keys are %s" what (String.concat "," keys);
          (match (Json.member "correct" summary, Json.member "failed" summary) with
          | Some (Json.Bool true), Some (Json.Num 0.) -> ()
          | _ -> fail "%s: not correct" what);
          let got =
            match Json.member "metrics" summary with
            | Some (Json.Obj ms) ->
              List.map
                (fun (name, m) ->
                  match (Json.member "value" m, Json.member "unit" m) with
                  | Some (Json.Num _), Some (Json.Str u) -> (name, u)
                  | _ -> fail "%s: metric %s is malformed" what name)
                ms
            | _ -> fail "%s: no metrics object" what
          in
          let same (n1, u1) (n2, u2) = String.equal n1 n2 && String.equal u1 u2 in
          if not (List.equal same got (declared spec kind)) then
            fail "%s: metrics differ from BENCHMARK.json %s" what kind;
          Printf.printf "smoke: %s ok (%d metrics)\n%!" what (List.length got))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    [ "thm1-cold"; "thm1-warm"; "runtime-1m" ]
