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
