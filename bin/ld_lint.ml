(* `ld_lint` — the determinism/exactness/domain-safety static analyzer.

   The one executable that links compiler-libs (the rules read the
   compiler's .cmt typed trees), kept apart from `ld` so that the
   certificate server and every other `ld` subcommand start without
   the compiler's pages. Exit codes: 0 clean, 1 violations, 2 an
   input that cannot be linted. *)

open Cmdliner

let default_paths = [ "lib"; "bin"; "test"; "bench"; "examples" ]

let lint json list_rules sarif_out paths =
  if list_rules then begin
    Format.printf "%a" Ld_lint.Driver.pp_rules ();
    0
  end
  else begin
    match Ld_lint.Driver.invalid_inputs paths with
    | _ :: _ as bad ->
      List.iter
        (fun (p, why) -> Format.eprintf "ld_lint: %s: %s@." p why)
        bad;
      2
    | [] ->
      let paths =
        match paths with
        | [] -> List.filter Sys.file_exists default_paths
        | ps -> ps
      in
      let diags = Ld_lint.Driver.lint_paths paths in
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Ld_lint.Sarif.render diags)))
        sarif_out;
      Ld_lint.Driver.report ~json Format.std_formatter diags
  end

let cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit diagnostics as a JSON array on stdout.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let sarif_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:"Write all diagnostics as a SARIF 2.1.0 log to $(docv).")
  in
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (default: lib bin test bench \
             examples). Directories are walked recursively; _build and \
             the test fixture trees are skipped. A path that does not \
             exist (or is not an .ml file) exits 2.")
  in
  Cmd.v
    (Cmd.info "ld_lint" ~version:"1.0.0"
       ~doc:
         "Run the ld-lint determinism/exactness/domain-safety static \
          analyzer over OCaml sources. Every rule reads the compiler's \
          .cmt files under _build/default (or under the current directory \
          when that is absent), so build first, e.g. $(b,dune build \
          @check); $(b,dune build @lint) does both. Exits 1 if any \
          violation is found. Suppress a finding with a (* ld-lint: allow \
          <rule> *) comment on the same or preceding line.")
    Term.(const lint $ json $ list_rules $ sarif_out $ paths)

let () = exit (Cmd.eval' cmd)
