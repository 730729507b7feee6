(* ld-lint against its fixture corpora. Each file of lint_fixtures/
   must trigger exactly its own rule (and nothing else), clean and
   suppressed fixtures must come back empty, and the JSON rendering
   must round-trip the rule ids. The seeded mini-project deep_fixtures/
   must report a three-call chain down to Random.int with the full
   chain printed, and catch closures handed to Pool.map mutating shared
   state through a helper; the SARIF rendering must be structurally
   valid 2.1.0.

   Runs from test/, so fixture paths are relative. Both fixture trees
   are libraries: the typed rules read their .cmt files, built by the
   (alias_rec check) dependency. *)

module Driver = Ld_lint.Driver
module Rules = Ld_lint.Rules
module Diagnostic = Ld_lint.Diagnostic
module Sarif = Ld_lint.Sarif
module Json = Ld_obs.Json

let fixture name = Filename.concat "lint_fixtures" name

let rule_ids diags =
  List.sort_uniq String.compare
    (List.map (fun (d : Diagnostic.t) -> d.rule) diags)

let check_fixture ~name ~expected_rules ~expected_count () =
  let diags = Driver.lint_file (fixture name) in
  Alcotest.(check (list string))
    (name ^ " rule set") expected_rules (rule_ids diags);
  Alcotest.(check int) (name ^ " count") expected_count (List.length diags)

let dirty_fixtures =
  [
    ("poly_compare.ml", "poly-compare", 5);
    ("refinement_poly.ml", "poly-compare", 5);
    ("nondet.ml", "nondet-source", 4);
    ("obs_sampler.ml", "nondet-source", 2);
    (* one finding per pool task, not one per write plus one per task *)
    ("domain_safety.ml", "domain-safety", 3);
    ("packed_state.ml", "domain-safety", 3);
    (* the write target of Buffer.add_* is its first argument *)
    ("buffer_capture.ml", "domain-safety", 1);
    ("machine_purity.ml", "machine-purity", 4);
    ("obj_magic.ml", "obj-magic", 2);
    ("iface_magic.mli", "obj-magic", 1);
    ("exn_swallow.ml", "exn-swallow", 2);
    ("serve_loop.ml", "exn-swallow", 2);
    ("stale_allow.ml", "stale-suppression", 2);
  ]

let each_fixture_triggers_only_its_rule () =
  List.iter
    (fun (name, rule, count) ->
      check_fixture ~name ~expected_rules:[ rule ] ~expected_count:count ())
    dirty_fixtures

let clean_fixtures_are_clean () =
  List.iter
    (fun name ->
      check_fixture ~name ~expected_rules:[] ~expected_count:0 ())
    [ "clean.ml"; "suppressed.ml"; "suppressed_file.ml" ]

let directory_walk_covers_all_rules () =
  let diags = Driver.lint_paths [ "lint_fixtures" ] in
  Alcotest.(check (list string))
    "every table rule fires across the corpus"
    (List.sort_uniq String.compare
       (List.map (fun (_, rule, _) -> rule) dirty_fixtures))
    (rule_ids diags);
  Alcotest.(check int) "violations exit 1" 1
    (Driver.report ~json:true (Format.make_formatter (fun _ _ _ -> ()) ignore) diags);
  let expected_total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 dirty_fixtures
  in
  Alcotest.(check int) "total diagnostics" expected_total (List.length diags)

let diagnostics_are_sorted_and_deduped () =
  let diags = Driver.lint_paths [ "lint_fixtures" ] in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Diagnostic.compare a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending (sorted, no dups)" true
    (sorted diags)

let path_arguments_select_units () =
  (* The typed rules lint only the units under the named paths: the
     rest of the corpus, compiled into the same library, stays out. *)
  let file = fixture "nondet.ml" in
  let diags = Driver.lint_paths [ file ] in
  Alcotest.(check (list string)) "rule set" [ "nondet-source" ] (rule_ids diags);
  Alcotest.(check int) "count" 4 (List.length diags);
  Alcotest.(check (list string))
    "anchored in the named file" [ file ]
    (List.sort_uniq String.compare
       (List.map (fun (d : Diagnostic.t) -> d.file) diags))

let invalid_inputs_are_reported () =
  Alcotest.(check (list (pair string string)))
    "missing path and wrong extension"
    [
      ("lint_fixtures/no_such_file.ml", "no such file or directory");
      ( "lint_fixtures/not_ocaml.txt",
        "not an OCaml source file (expected .ml or .mli)" );
    ]
    (Driver.invalid_inputs
       [
         "lint_fixtures";
         "lint_fixtures/no_such_file.ml";
         "lint_fixtures/not_ocaml.txt";
       ]);
  Alcotest.(check (list (pair string string)))
    "directories and sources are acceptable" []
    (Driver.invalid_inputs [ "lint_fixtures"; fixture "clean.ml" ])

(* Lint a fresh temporary .ml holding [code]: no .cmt exists for it. *)
let lint_temp code =
  let tmp = Filename.temp_file "ld_lint_fixture" ".ml" in
  Out_channel.with_open_text tmp (fun oc -> Out_channel.output_string oc code);
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> Driver.lint_file tmp)

let parse_error_is_a_diagnostic () =
  Alcotest.(check (list string)) "parse-error rule" [ "parse-error" ]
    (rule_ids (lint_temp "let broken = (\n"))

let unbuilt_source_is_reported () =
  (* the typed rules cannot run, and the run must not pass as clean *)
  let diags = lint_temp "let draw () = Random.int 6\n" in
  Alcotest.(check (list string)) "no-cmt rule" [ "no-cmt" ] (rule_ids diags);
  Alcotest.(check int) "one finding" 1 (List.length diags)

let json_rendering () =
  let diags = Driver.lint_file (fixture "poly_compare.ml") in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let code = Driver.report ~json:true fmt diags in
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) "array" true
    (String.length s > 0 && s.[0] = '[');
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rule field present" true
    (contains "\"rule\":\"poly-compare\"");
  Alcotest.(check bool) "severity field present" true
    (contains "\"severity\":\"error\"")

let clean_report_exit_code () =
  let buf = Buffer.create 16 in
  let fmt = Format.formatter_of_buffer buf in
  let code = Driver.report ~json:false fmt [] in
  Format.pp_print_flush fmt ();
  Alcotest.(check int) "exit code" 0 code

let registry_is_complete () =
  Alcotest.(check (list string))
    "registry ids"
    [
      "poly-compare"; "nondet-source"; "domain-safety"; "machine-purity";
      "obj-magic"; "exn-swallow";
    ]
    (List.map (fun (r : Rules.info) -> r.id) Rules.all)

(* ---------- deep_fixtures: call chains ---------- *)

let deep_diags () = Driver.lint_paths [ "deep_fixtures" ]

let find_diag diags rule file =
  match
    List.find_opt
      (fun (d : Diagnostic.t) -> d.rule = rule && Filename.basename d.file = file)
      diags
  with
  | Some d -> d
  | None -> Alcotest.fail (Printf.sprintf "no %s finding in %s" rule file)

let chain_is_reported () =
  let diags = deep_diags () in
  Alcotest.(check int) "fixture finding count" 5 (List.length diags);
  (* a 3-deep chain, printed in full *)
  let step = find_diag diags "machine-purity" "chain.ml" in
  Alcotest.(check string)
    "transition chain message"
    "machine transition `step` transitively draws nondeterministic values \
     — transitions must be pure: Deep_fixtures.Chain.step -> \
     Deep_fixtures.Helpers.stage_one -> Deep_fixtures.Deeper.stage_two -> \
     Random.int (test/deep_fixtures/deeper.ml:2)"
    step.message;
  Alcotest.(check int) "transition anchored at its binding" 4 step.line;
  let middle = find_diag diags "nondet-source" "helpers.ml" in
  Alcotest.(check string)
    "middle link"
    "`stage_one` transitively draws nondeterministic values: \
     Deep_fixtures.Helpers.stage_one -> Deep_fixtures.Deeper.stage_two -> \
     Random.int (test/deep_fixtures/deeper.ml:2)"
    middle.message;
  (* the direct use is a chain of length one *)
  let direct = find_diag diags "nondet-source" "deeper.ml" in
  Alcotest.(check string)
    "direct use"
    "`stage_two` draws nondeterministic values: \
     Deep_fixtures.Deeper.stage_two -> Random.int \
     (test/deep_fixtures/deeper.ml:2)"
    direct.message;
  Alcotest.(check int) "direct use anchored at its binding" 2 direct.line

let pool_mutation_through_helper () =
  let pool =
    List.filter
      (fun (d : Diagnostic.t) ->
        d.rule = "domain-safety" && Filename.basename d.file = "pool_capture.ml")
      (deep_diags ())
  in
  Alcotest.(check int) "both Pool.map findings" 2 (List.length pool);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let witness =
    "Deep_fixtures.Shared_tally.bump -> reference increment to `tally` \
     (test/deep_fixtures/shared_tally.ml:3)"
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool)
        ("mutation-through-helper witness in: " ^ d.message)
        true
        (contains d.message witness))
    pool;
  (* one anchored at the closure literal, one at the named reference *)
  let lines =
    List.sort Int.compare (List.map (fun (d : Diagnostic.t) -> d.line) pool)
  in
  Alcotest.(check (list int)) "anchors" [ 8; 13 ] lines

(* ---------- SARIF ---------- *)

let member_exn k v =
  match Json.member k v with
  | Some x -> x
  | None -> Alcotest.fail ("SARIF: missing member " ^ k)

let str_exn what v =
  match Json.to_string v with
  | Some s -> s
  | None -> Alcotest.fail ("SARIF: expected string at " ^ what)

let arr_exn what v =
  match Json.to_list v with
  | Some l -> l
  | None -> Alcotest.fail ("SARIF: expected array at " ^ what)

let sarif_is_structurally_valid () =
  let diags = deep_diags () in
  let log = Json.parse (Sarif.render diags) in
  Alcotest.(check string)
    "version" "2.1.0"
    (str_exn "version" (member_exn "version" log));
  let schema = str_exn "$schema" (member_exn "$schema" log) in
  Alcotest.(check bool) "schema uri names 2.1.0" true
    (Filename.basename schema = "sarif-schema-2.1.0.json");
  let runs = arr_exn "runs" (member_exn "runs" log) in
  Alcotest.(check int) "one run" 1 (List.length runs);
  let run = List.hd runs in
  let driver = member_exn "driver" (member_exn "tool" run) in
  Alcotest.(check string)
    "driver name" "ld-lint"
    (str_exn "name" (member_exn "name" driver));
  let rule_ids =
    arr_exn "rules" (member_exn "rules" driver)
    |> List.map (fun r -> str_exn "rule id" (member_exn "id" r))
  in
  Alcotest.(check (list string))
    "catalogue"
    [
      "poly-compare"; "nondet-source"; "domain-safety"; "machine-purity";
      "obj-magic"; "exn-swallow"; "parse-error"; "no-cmt";
      "stale-suppression";
    ]
    rule_ids;
  let results = arr_exn "results" (member_exn "results" run) in
  Alcotest.(check int) "one result per diagnostic" (List.length diags)
    (List.length results);
  List.iter
    (fun r ->
      let rule_id = str_exn "ruleId" (member_exn "ruleId" r) in
      let index =
        match Json.to_float (member_exn "ruleIndex" r) with
        | Some f -> int_of_float f
        | None -> Alcotest.fail "SARIF: ruleIndex not a number"
      in
      Alcotest.(check string)
        "ruleIndex points at ruleId" rule_id
        (List.nth rule_ids index);
      Alcotest.(check string)
        "level" "error"
        (str_exn "level" (member_exn "level" r));
      ignore (str_exn "message" (member_exn "text" (member_exn "message" r)));
      let loc =
        match arr_exn "locations" (member_exn "locations" r) with
        | [ l ] -> member_exn "physicalLocation" l
        | _ -> Alcotest.fail "SARIF: expected exactly one location"
      in
      let region = member_exn "region" loc in
      let pos what =
        match Json.to_float (member_exn what region) with
        | Some f when f >= 1.0 -> ()
        | _ -> Alcotest.fail ("SARIF: " ^ what ^ " must be >= 1")
      in
      pos "startLine";
      pos "startColumn";
      ignore
        (str_exn "uri"
           (member_exn "uri" (member_exn "artifactLocation" loc))))
    results

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "each dirty fixture triggers only its rule" `Quick
            each_fixture_triggers_only_its_rule;
          Alcotest.test_case "clean and suppressed fixtures are clean" `Quick
            clean_fixtures_are_clean;
          Alcotest.test_case "directory walk covers all rules" `Quick
            directory_walk_covers_all_rules;
          Alcotest.test_case "output sorted and deduped" `Quick
            diagnostics_are_sorted_and_deduped;
          Alcotest.test_case "path arguments select units" `Quick
            path_arguments_select_units;
          Alcotest.test_case "invalid inputs are reported" `Quick
            invalid_inputs_are_reported;
          Alcotest.test_case "parse error becomes a diagnostic" `Quick
            parse_error_is_a_diagnostic;
          Alcotest.test_case "unbuilt source is reported" `Quick
            unbuilt_source_is_reported;
        ] );
      ( "taint",
        [
          Alcotest.test_case "3-deep Random chain, full chain printed" `Quick
            chain_is_reported;
          Alcotest.test_case "Pool closures mutating through a helper" `Quick
            pool_mutation_through_helper;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "json" `Quick json_rendering;
          Alcotest.test_case "clean exit code" `Quick clean_report_exit_code;
          Alcotest.test_case "registry" `Quick registry_is_complete;
        ] );
      ( "sarif",
        [ Alcotest.test_case "structurally valid 2.1.0" `Quick
            sarif_is_structurally_valid ] );
    ]
