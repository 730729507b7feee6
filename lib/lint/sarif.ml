(* SARIF 2.1.0 emission. One run, one driver ("ld-lint"), the
   rule catalogue under tool.driver.rules, and one result per
   diagnostic with a physical location. Only the schema's required
   properties plus the fields CI code-scanning consumes are emitted;
   columns are converted from the repo's 0-based convention to
   SARIF's 1-based one. *)

module Json = Ld_obs.Json

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

(* Forward slashes regardless of platform: SARIF artifact URIs. *)
let uri_of_file file =
  String.map (fun c -> if c = '\\' then '/' else c) file

(* SARIF nests most fields in one-member objects. *)
let field k v = Json.Obj [ (k, v) ]
let text t = field "text" (Json.Str t)

let rule_json (r : Rules.info) =
  Json.Obj
    [
      ("id", Json.Str r.id);
      ("shortDescription", text r.doc);
      ("defaultConfiguration", field "level" (Json.Str Diagnostic.level));
    ]

let result_json ~index_of (d : Diagnostic.t) =
  let region =
    Json.Obj [ ("startLine", Json.int d.line); ("startColumn", Json.int (d.col + 1)) ]
  in
  let location =
    Json.Obj
      [
        ("artifactLocation", field "uri" (Json.Str (uri_of_file d.file)));
        ("region", region);
      ]
  in
  Json.Obj
    ([ ("ruleId", Json.Str d.rule) ]
    @ (match index_of d.rule with Some i -> [ ("ruleIndex", Json.int i) ] | None -> [])
    @ [
        ("level", Json.Str Diagnostic.level);
        ("message", text d.message);
        ("locations", Json.Arr [ field "physicalLocation" location ]);
      ])

(* The catalogue: every rule plus the driver's synthetic ones. *)
let catalogue =
  Rules.all
  @ [
      {
        Rules.id = "no-cmt";
        doc =
          "No up-to-date .cmt for the file, so no rule ran on it; build \
           first.";
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
    List.find_index (fun (r : Rules.info) -> r.id = id) catalogue
  in
  let driver =
    Json.Obj
      [
        ("name", Json.Str "ld-lint");
        ("informationUri", Json.Str "https://example.invalid/ld-lint");
        ("rules", Json.Arr (List.map rule_json catalogue));
      ]
  in
  let run =
    Json.Obj
      [
        ("tool", field "driver" driver);
        ("results", Json.Arr (List.map (result_json ~index_of) diags));
      ]
  in
  Json.render
    (Json.Obj
       [
         ("$schema", Json.Str schema_uri);
         ("version", Json.Str "2.1.0");
         ("runs", Json.Arr [ run ]);
       ])
