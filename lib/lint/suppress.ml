(* Suppression comments.

   A diagnostic can be silenced at the offending site with a comment
   of the form [(* ld-lint: allow <rule...> *)], which silences the
   named rules on that line and the next, or
   [(* ld-lint: allow-file <rule...> *)], which silences them for the
   whole file. The pseudo-rule id [all] silences every rule in the
   chosen scope.

   The scanner is line-based and purely textual — the OCaml parser
   discards comments, so suppressions are recovered from the source
   text. Several rule ids may follow a single [allow]; a reason follows
   them after a token that is not a rule id, conventionally a dash:
   [(* ld-lint: allow <rule> — why *)]. Every lookup that finds a
   covering directive marks it used; a directive that is never used is
   itself a finding (stale-suppression, enforced by the driver), so the
   examples above deliberately use the [<rule...>] placeholder rather
   than a real rule id. *)

type scope = Line | File

type directive = {
  d_rule : string; (* rule id or "all" *)
  d_scope : scope;
  d_line : int; (* 1-based line of the comment itself *)
  mutable d_used : bool;
}

type t = directive list (* file order *)

let marker = "ld-lint:"

let is_rule_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* Tokens after the marker, up to the first one that is not a rule id
   (the comment closer, or the dash that introduces a reason). *)
let directive_tokens rest =
  let rec take = function
    | tok :: toks when String.for_all is_rule_char tok -> tok :: take toks
    | _ -> []
  in
  String.split_on_char ' ' rest
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")
  |> take

let find_marker line =
  let mlen = String.length marker and llen = String.length line in
  let rec find j =
    if j + mlen > llen then None
    else if String.sub line j mlen = marker then Some (j + mlen)
    else find (j + 1)
  in
  find 0

let of_source content =
  String.split_on_char '\n' content
  |> List.mapi (fun i line ->
         let directives scope rules =
           List.map
             (fun r -> { d_rule = r; d_scope = scope; d_line = i + 1; d_used = false })
             rules
         in
         match find_marker line with
         | None -> []
         | Some start -> (
           match directive_tokens (String.sub line start (String.length line - start)) with
           | "allow" :: rules -> directives Line rules
           | "allow-file" :: rules -> directives File rules
           | _ -> []))
  |> List.concat

(* The directive silencing [rule] at [line], marked used. An [allow]
   on line L covers findings on L (trailing comment) and L+1 (comment
   on its own line above the offender); line directives are preferred
   over file directives. *)
let covering t ~rule ~line =
  let names d = d.d_rule = rule || d.d_rule = "all" in
  let near d = d.d_scope = Line && (line = d.d_line || line = d.d_line + 1) in
  let found =
    match List.find_opt (fun d -> names d && near d) t with
    | Some _ as d -> d
    | None -> List.find_opt (fun d -> names d && d.d_scope = File) t
  in
  Option.iter (fun d -> d.d_used <- true) found;
  found

let unused t = List.filter (fun d -> not d.d_used) t
