(* The one JSON writer of the benchmark: every document it prints or
   saves (result lines, result files, child reports, request batches)
   goes through [render], so no JSON is assembled with Printf. *)

module Json = Ld_obs.Json

(* Integral values print without a decimal point; other numbers print
   with the fewest significant digits that read back as the same
   float, so a measured value keeps all its digits. Non-finite values
   have no JSON spelling and never reach the writer. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Render.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if Float.equal (float_of_string s) f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
      match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let rec add buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Num f -> Buffer.add_string buf (number f)
  | Json.Str s ->
    Buffer.add_char buf '"';
    (* the request stream's keys and values never need escaping *)
    if String.for_all (fun c -> c >= ' ' && c < '\x7f' && c <> '"' && c <> '\\') s
    then Buffer.add_string buf s
    else Buffer.add_string buf (Json.escape s);
    Buffer.add_char buf '"'
  | Json.Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        add buf v)
      vs;
    Buffer.add_char buf ']'
  | Json.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add buf (Json.Str k);
        Buffer.add_string buf ": ";
        add buf v)
      kvs;
    Buffer.add_char buf '}'

let render v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
