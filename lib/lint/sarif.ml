(* SARIF 2.1.0 emission (hand-rolled JSON, matching the repo's
   no-json-dependency policy). One run, one driver ("ld-lint"), the
   rule catalogue under tool.driver.rules, and one result per
   diagnostic with a physical location. Only the schema's required
   properties plus the fields CI code-scanning consumes are emitted;
   columns are converted from the repo's 0-based convention to
   SARIF's 1-based one. *)

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let esc = Diagnostic.json_escape

(* Forward slashes regardless of platform: SARIF artifact URIs. *)
let uri_of_file file =
  String.map (fun c -> if c = '\\' then '/' else c) file

let rule_json (r : Rules.info) =
  Printf.sprintf
    "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"%s\"}}"
    (esc r.id) (esc r.doc) Diagnostic.level

let result_json ~index_of (d : Diagnostic.t) =
  let rule_index =
    match index_of d.rule with Some i -> i | None -> -1
  in
  let rule_index_field =
    if rule_index >= 0 then Printf.sprintf ",\"ruleIndex\":%d" rule_index
    else ""
  in
  Printf.sprintf
    "{\"ruleId\":\"%s\"%s,\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
    (esc d.rule) rule_index_field
    Diagnostic.level
    (esc d.message)
    (esc (uri_of_file d.file))
    d.line (d.col + 1)

(* The catalogue: every rule plus the driver's synthetic ones. *)
let catalogue =
  Rules.all
  @ [
      {
        Rules.id = "parse-error";
        doc = "The file failed to parse; nothing else can be checked.";
      };
      {
        id = "no-cmt";
        doc =
          "No up-to-date .cmt for the file, so the typed rules could not run; \
           build first.";
      };
      {
        id = "stale-suppression";
        doc =
          "A suppression comment that silences no diagnostic; stale allows \
           accumulate as rules tighten.";
      };
    ]

(* Render a complete SARIF log. Diagnostics whose rule id is missing
   from the catalogue (defensive — should not happen) are emitted
   without a ruleIndex, which the schema permits. *)
let render diags =
  let index_of id =
    let rec go i = function
      | [] -> None
      | (r : Rules.info) :: rest -> if r.id = id then Some i else go (i + 1) rest
    in
    go 0 catalogue
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"$schema\":\"";
  Buffer.add_string buf schema_uri;
  Buffer.add_string buf "\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"ld-lint\",\"informationUri\":\"https://example.invalid/ld-lint\",\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (rule_json r))
    catalogue;
  Buffer.add_string buf "]}},\"results\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (result_json ~index_of d))
    diags;
  Buffer.add_string buf "]}]}";
  Buffer.contents buf
