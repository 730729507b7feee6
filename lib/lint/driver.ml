(* File discovery, the rules over .cmt files, suppression and
   rendering. The library entry point used by both `ld_lint.exe` and
   test/test_lint.ml.

   The linter's one input is the compiler's typed tree. A collected .ml
   is linted when a .cmt's recorded source path is a suffix of its
   path and the recorded source digest matches it, so path arguments
   select units and a stale build cannot anchor findings on the wrong
   lines. Only those units enter the call graph. A collected .ml with
   no such unit gets one no-cmt finding and nothing else. *)

module Json = Ld_obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Directories never descended into when walking. [lint_fixtures] and
   [deep_fixtures] hold deliberately-dirty code for test_lint.ml; they
   are skipped when collecting sources (fixture files are still linted
   when named explicitly) but not when collecting .cmt files. *)
let build_dirs = [ "_build"; "_opam"; ".git"; "node_modules" ]
let skip_dirs = build_dirs @ [ "lint_fixtures"; "deep_fixtures" ]

let is_source path = Filename.check_suffix path ".ml"

(* The files under [path] (or [path] itself) satisfying [keep], in
   reverse sorted order, not descending into directories named in
   [skip]. *)
let rec walk ~skip ~keep acc path =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if List.mem entry skip then acc
           else walk ~skip ~keep acc (Filename.concat path entry))
         acc
  else if keep path then path :: acc
  else acc

(* Explicit CLI inputs that cannot be linted: a missing path or a file
   that is not an .ml. Directories are always acceptable
   (they are walked). Returns (path, reason) pairs; the CLI reports
   them and exits 2 so a typo can never masquerade as a clean run. *)
let invalid_inputs paths =
  List.filter_map
    (fun p ->
      if not (Sys.file_exists p) then Some (p, "no such file or directory")
      else if Sys.is_directory p then None
      else if is_source p then None
      else Some (p, "not an OCaml implementation (expected .ml)"))
    paths

let dedup_sorted ds =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if Diagnostic.equal a b then go rest else a :: go rest
    | l -> l
  in
  go (List.sort Diagnostic.compare ds)

(* One collected file. [findings] holds every rule's findings, or None
   when no .cmt was found for the file. *)
type source = {
  file : string;
  content : string;
  suppress : Suppress.t;
  mutable findings : Diagnostic.t list option;
}

(* ---------- the rules over .cmt files ---------- *)

let default_root () =
  if Sys.file_exists "_build/default" then "_build/default" else "."

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* Point the compiler's load path at the unit's own: rebuilding a typed
   environment reads the .cmi files it was compiled against. Relative
   entries are relative to the build root, the nearest ancestor of the
   .cmt that holds the recorded source. *)
let set_load_path cmt (infos : Cmt_format.cmt_infos) src =
  let rec root dir =
    if Sys.file_exists (Filename.concat dir src) || Filename.dirname dir = dir
    then dir
    else root (Filename.dirname dir)
  in
  let root = root (Filename.dirname (absolute cmt)) in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map
       (fun d -> if Filename.is_relative d then Filename.concat root d else d)
       infos.cmt_loadpath);
  Envaux.reset_cache ()

(* The linted unit of a .cmt: its source and its typed tree. *)
let unit_of ~by_digest cmt =
  let infos = Cmt_format.read_cmt cmt in
  match infos with
  | {
   cmt_annots = Implementation str;
   cmt_sourcefile = Some src;
   cmt_source_digest = Some digest;
   _;
  } ->
    let recorded s = String.ends_with ~suffix:("/" ^ src) ("/" ^ absolute s.file) in
    Hashtbl.find_all by_digest digest
    |> List.find_opt recorded
    |> Option.map (fun s -> (s, infos, src, str))
  | _ -> None

let diag_at ~file rule (loc : Summary.loc) message =
  {
    Diagnostic.file;
    line = loc.l_line;
    col = loc.l_col;
    rule;
    message;
  }

(* One finding per effect kind the entry's rule watches and the node
   at [key] carries, each printing the chain down to a witness. A
   node that is its own witness (a chain of length one) acts
   directly; otherwise it acts transitively. *)
let entry_findings graph ~file ~key ~loc ~subject (entry : Summary.entry_kind) =
  let rule, kinds, tail =
    match entry with
    | Plain -> ("nondet-source", [ Summary.Nondet; Summary.Reads_clock ], "")
    | Transition _ ->
      ("machine-purity", Summary.all_kinds, " — transitions must be pure")
    | Pool_closure _ ->
      ( "domain-safety",
        [ Summary.Mutates_shared ],
        " — tasks run on separate domains" )
  in
  match Callgraph.find graph key with
  | None -> []
  | Some node ->
    List.filter_map
      (fun kind ->
        if not (Summary.mem node.Callgraph.eff kind) then None
        else
          let direct =
            List.exists
              (fun (d : Summary.direct) -> d.d_kind = kind)
              node.fn.f_direct
          in
          Some
            (diag_at ~file rule loc
               (Printf.sprintf "%s %s%s%s: %s" subject
                  (if direct then "" else "transitively ")
                  (Summary.describe kind) tail
                  (Callgraph.chain_text graph key kind))))
      kinds

let unit_findings graph ~file (u : Summary.t) =
  List.concat_map
    (fun (fn : Summary.fn) ->
      let subject =
        match fn.f_entry with
        | Plain -> Printf.sprintf "`%s`" fn.f_display
        | Transition name -> Printf.sprintf "machine transition `%s`" name
        | Pool_closure context -> "closure passed to " ^ context
      in
      match Callgraph.find graph fn.f_key with
      | Some node when node.fn == fn ->
        entry_findings graph ~file ~key:fn.f_key ~loc:fn.f_loc ~subject fn.f_entry
      | _ -> [])
    u.u_fns
  @ List.concat_map
      (fun (r : Summary.entry_ref) ->
        let subject =
          match r.r_entry with
          | Transition name ->
            Printf.sprintf "machine transition `%s` (= %s)" name r.r_callee
          | Pool_closure context ->
            Printf.sprintf "`%s` passed to %s" r.r_callee context
          | Plain -> r.r_callee
        in
        entry_findings graph ~file ~key:r.r_callee ~loc:r.r_loc ~subject
          r.r_entry)
      u.u_refs

(* Run every rule over every unit of [sources] found under [root],
   filling each source's [findings]. Extraction consults
   the sources' suppressions, marking sanctioning allows used. *)
let run_rules ~root sources =
  let by_digest = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add by_digest (Digest.string s.content) s) sources;
  let units =
    walk ~skip:build_dirs ~keep:(fun p -> Filename.check_suffix p ".cmt") [] root
    |> List.sort String.compare
    |> List.filter_map (fun cmt ->
           match unit_of ~by_digest cmt with
           (* one unit per source: a build may leave both a bytecode and
              a native .cmt of it *)
           | Some (s, infos, src, str) when Option.is_none s.findings ->
             s.findings <- Some [];
             let summary =
               Extract.of_structure ~unit_name:infos.Cmt_format.cmt_modname
                 ~source:src ~suppress:s.suppress str
             in
             set_load_path cmt infos src;
             Some (s, summary, Rules.local ~file:s.file str)
           | _ -> None)
  in
  let graph = Callgraph.build (List.map (fun (_, u, _) -> u) units) in
  Callgraph.solve graph;
  List.iter
    (fun (s, u, local) ->
      s.findings <- Some (unit_findings graph ~file:s.file u @ local))
    units

(* ---------- per-file assembly ---------- *)

(* Suppression hygiene: a directive that neither silenced a finding
   nor sanctioned an effect site is itself reported, anchored at the
   comment line. [allow stale-suppression] is exempt to keep the check
   well-founded. *)
let stale_suppressions s =
  Suppress.unused s.suppress
  |> List.filter_map (fun (d : Suppress.directive) ->
         if d.d_rule = "stale-suppression" then None
         else
           Some
             {
               Diagnostic.file = s.file;
               line = d.d_line;
               col = 0;
               rule = "stale-suppression";
               message =
                 Printf.sprintf
                   "`%s %s` silences no diagnostic — remove the stale \
                    suppression"
                   (match d.d_scope with
                   | Suppress.Line -> "allow"
                   | Suppress.File -> "allow-file")
                   d.d_rule;
             })

(* A file without a unit (unbuilt, stale, or unparsable) yields one
   no-cmt finding: no rule ran, so no directive can be validated, and
   the run must not pass as clean. *)
let lint_source s =
  match s.findings with
  | None ->
    [
      {
        Diagnostic.file = s.file;
        line = 1;
        col = 0;
        rule = "no-cmt";
        message =
          "no up-to-date .cmt for this file, so no rule ran — build first \
           (dune build @check)";
      };
    ]
  | Some ds ->
    let allowed (d : Diagnostic.t) =
      Option.is_some (Suppress.covering s.suppress ~rule:d.rule ~line:d.line)
    in
    let kept = List.filter (fun d -> not (allowed d)) ds in
    kept @ List.filter (fun d -> not (allowed d)) (stale_suppressions s)

let lint_paths paths =
  let sources =
    List.fold_left (walk ~skip:skip_dirs ~keep:is_source) [] paths
    |> List.sort_uniq String.compare
    |> List.map (fun file ->
           let content = read_file file in
           { file; content; suppress = Suppress.of_source content; findings = None })
  in
  run_rules ~root:(default_root ()) sources;
  List.concat_map lint_source sources |> dedup_sorted

let lint_file file = lint_paths [ file ]

(* Render to [fmt]; returns the exit code (0 clean, 1 violations). *)
let report ~json fmt diags =
  if json then begin
    let diag (d : Diagnostic.t) =
      Json.Obj
        [
          ("file", Json.Str d.file);
          ("line", Json.int d.line);
          ("col", Json.int d.col);
          ("rule", Json.Str d.rule);
          ("severity", Json.Str Diagnostic.level);
          ("message", Json.Str d.message);
        ]
    in
    Format.fprintf fmt "%s@\n" (Json.render (Json.Arr (List.map diag diags)))
  end
  else begin
    List.iter (fun d -> Format.fprintf fmt "%a@." Diagnostic.pp d) diags;
    match List.length diags with
    | 0 -> Format.fprintf fmt "ld-lint: no violations@."
    | n -> Format.fprintf fmt "ld-lint: %d violation%s@." n (if n = 1 then "" else "s")
  end;
  match diags with [] -> 0 | _ -> 1

let pp_rules fmt () =
  List.iter
    (fun (r : Rules.info) ->
      Format.fprintf fmt "@[<v 2>%s [%s]@,@[<hov>%a@]@]@.@." r.id
        Diagnostic.level Format.pp_print_text r.doc)
    Rules.all
