(* The one JSON reader and writer: every document the system emits
   (bench artefacts, traces, `ld stats --json`, `ld serve` frames,
   lint reports) is a [value] printed by [render]; the repo takes no
   JSON dependency.

   The printer has one fixed layout: compact, no whitespace. Integral
   numbers with |f| < 1e15 print as integer digits, so counters and
   ids round-trip exactly; other finite numbers print as the shortest
   of %.15g/%.16g/%.17g that reads back equal; non-finite numbers,
   which JSON cannot spell, print as null.

   [escape] hardens string emission against arbitrary bytes: quotes,
   backslashes, control characters AND every byte >= 0x7f are emitted
   as escapes, so the output is pure printable ASCII and therefore
   valid JSON (and valid UTF-8) regardless of what bytes a
   user-supplied span name, path or message contains. Well-formed
   UTF-8 is escaped as its code points, so it reads back unchanged. A
   string that needs no escaping is returned as is.

   [parse] is a strict recursive-descent reader (all of standard JSON,
   numbers as floats) for artefacts and wire frames; it is not a
   streaming parser. Nesting deeper than [max_depth] is rejected, so a
   hostile frame cannot make it recurse millions of levels. *)

let needs_escape c =
  c = '"' || c = '\\' || Char.code c < 0x20 || Char.code c >= 0x7f

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    let u k = Printf.bprintf buf "\\u%04x" k in
    let rec go i =
      if i < String.length s then
        match s.[i] with
        | ('"' | '\\') as c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c;
          go (i + 1)
        | c when not (needs_escape c) ->
          Buffer.add_char buf c;
          go (i + 1)
        | c ->
          let d = String.get_utf_8_uchar s i in
          let k = Uchar.to_int (Uchar.utf_decode_uchar d) in
          if Char.code c < 0x80 || not (Uchar.utf_decode_is_valid d) then begin
            u (Char.code c);
            go (i + 1)
          end
          else begin
            if k < 0x10000 then u k
            else begin
              u (0xD800 lor ((k - 0x10000) lsr 10));
              u (0xDC00 lor ((k - 0x10000) land 0x3FF))
            end;
            go (i + Uchar.utf_decode_length d)
          end
    in
    go 0;
    Buffer.contents buf
  end

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let int i = Num (float_of_int i)

exception Parse_error of string * int

(* The artefacts nest at most ~6 levels; a wire frame is 2. *)
let max_depth = 64

(* ---- printer ---- *)

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else if not (Float.is_finite f) then "null"
  else
    let shortest p = Printf.sprintf "%.*g" p f in
    let s = shortest 15 in
    if Float.equal (float_of_string s) f then s
    else
      let s = shortest 16 in
      if Float.equal (float_of_string s) f then s else shortest 17

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr vs -> write_seq buf '[' ']' (write buf) vs
  | Obj kvs ->
    write_seq buf '{' '}'
      (fun (k, v) ->
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      kvs

and write_seq : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun buf op cl item xs ->
  Buffer.add_char buf op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      item x)
    xs;
  Buffer.add_char buf cl

let render v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

(* A document on disk ends with a newline. *)
let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (render v);
      Out_channel.output_char oc '\n')

(* ---- parser ---- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let peek_is c = !pos < n && Char.equal s.[!pos] c in
  let advance () = incr pos in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      ws ()
    | _ -> ()
  in
  let expect c =
    if peek_is c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal l v =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then begin
      pos := !pos + String.length l;
      v
    end
    else fail ("expected " ^ l)
  in
  let hex4 () =
    let d c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for _ = 1 to 4 do
      match peek () with
      | Some c ->
        v := (!v * 16) + d c;
        advance ()
      | None -> fail "bad \\u escape"
    done;
    !v
  in
  (* A high surrogate followed by an escaped low one is one code point;
     a lone surrogate has no UTF-8 form and reads as U+FFFD. *)
  let code_point () =
    let v = hex4 () in
    let pair =
      !pos + 1 < n && Char.equal s.[!pos] '\\' && Char.equal s.[!pos + 1] 'u'
    in
    if v < 0xD800 || v >= 0xDC00 || not pair then v
    else begin
      let save = !pos in
      pos := !pos + 2;
      let lo = hex4 () in
      if lo >= 0xDC00 && lo < 0xE000 then
        0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00)
      else begin
        pos := save;
        v
      end
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          let v = code_point () in
          Buffer.add_utf_8_uchar buf
            (if Uchar.is_valid v then Uchar.of_int v else Uchar.rep)
        | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
          Buffer.add_char buf
            (match c with
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | c -> c);
          advance ()
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek_is '-' then advance ();
    let digits () =
      let from = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = from then fail "expected digit"
    in
    digits ();
    if peek_is '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* The members of an array or object up to [close], after its opener. *)
  let seq close item =
    advance ();
    ws ();
    if peek_is close then begin
      advance ();
      []
    end
    else begin
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go acc
        | Some c when Char.equal c close ->
          advance ();
          List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      go []
    end
  in
  let rec value depth =
    ws ();
    if depth > max_depth then fail "nesting too deep";
    match peek () with
    | Some '{' ->
      Obj
        (seq '}' (fun () ->
             ws ();
             let k = string_lit () in
             ws ();
             expect ':';
             (k, value (depth + 1))))
    | Some '[' -> Arr (seq ']' (fun () -> value (depth + 1)))
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected value"
  in
  let v = value 0 in
  ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse contents

(* Accessors used by the artefact tooling; [None] on shape mismatch. *)
let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_list = function Arr vs -> Some vs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
