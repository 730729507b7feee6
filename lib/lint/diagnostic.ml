(* A single finding: file/line/col anchor, the rule that fired, and a
   human message. Every finding fails the build. *)

type t = {
  file : string;
  line : int; (* 1-based *)
  col : int; (* 0-based, as compilers print them *)
  rule : string;
  message : string;
}

(* The one severity level, printed in the text, JSON and SARIF output. *)
let level = "error"

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let equal a b = compare a b = 0

let pp fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s] %s: %s" d.file d.line d.col level d.rule
    d.message

(* JSON is hand-rolled (as in Ld_obs.Trace): the repo deliberately
   avoids a JSON dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"}"
    (json_escape d.file) d.line d.col (json_escape d.rule) level
    (json_escape d.message)

let list_to_json ds =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf (to_json d))
    ds;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
