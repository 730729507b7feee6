(* ld-lint against its fixture corpus: each fixture file must trigger
   exactly its own rule (and nothing else), clean/suppressed fixtures
   must come back empty, and the JSON rendering must round-trip the
   rule ids. Runs from test/, so fixture paths are relative. *)

module Driver = Ld_lint.Driver
module Rules = Ld_lint.Rules
module Diagnostic = Ld_lint.Diagnostic

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
    ("domain_safety.ml", "domain-safety", 3);
    ("packed_state.ml", "domain-safety", 3);
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
  Alcotest.(check bool) "has errors" true (Driver.has_errors diags);
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

let selected_rules_only () =
  (* Restricting to one rule must silence the others. *)
  let rules =
    match Rules.find "poly-compare" with
    | Some r -> [ r ]
    | None -> Alcotest.fail "poly-compare rule missing from registry"
  in
  let diags = Driver.lint_paths ~rules [ "lint_fixtures" ] in
  Alcotest.(check (list string)) "only poly-compare" [ "poly-compare" ]
    (rule_ids diags)

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

let stale_check_skipped_for_restricted_runs () =
  (* A run restricted to one rule must not read the other rules'
     allows as stale: stale_allow.ml's two stale directives only
     surface under the full rule set. *)
  let rules =
    match Rules.find "obj-magic" with
    | Some r -> [ r ]
    | None -> Alcotest.fail "obj-magic rule missing from registry"
  in
  let diags = Driver.lint_file ~rules (fixture "stale_allow.ml") in
  Alcotest.(check (list string)) "no stale findings" [] (rule_ids diags)

let parse_error_is_a_diagnostic () =
  let tmp = Filename.temp_file "ld_lint_fixture" ".ml" in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc "let broken = (\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let diags = Driver.lint_file tmp in
      Alcotest.(check (list string)) "parse-error rule" [ "parse-error" ]
        (rule_ids diags))

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
    (List.map (fun (r : Rules.rule) -> r.id) Rules.all)

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
          Alcotest.test_case "rule selection" `Quick selected_rules_only;
          Alcotest.test_case "invalid inputs are reported" `Quick
            invalid_inputs_are_reported;
          Alcotest.test_case "stale check needs the full rule set" `Quick
            stale_check_skipped_for_restricted_runs;
          Alcotest.test_case "parse error becomes a diagnostic" `Quick
            parse_error_is_a_diagnostic;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "json" `Quick json_rendering;
          Alcotest.test_case "clean exit code" `Quick clean_report_exit_code;
          Alcotest.test_case "registry" `Quick registry_is_complete;
        ] );
    ]
