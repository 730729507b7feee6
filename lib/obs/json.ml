(* The one JSON reader and writer: every document the system emits
   (bench artefacts, traces, `ld adversary --format json`, `ld serve` frames,
   lint reports) is a [value] printed by [render]; the repo takes no
   JSON dependency.

   The printer has one fixed layout: compact, no whitespace, lists
   walked by direct recursion. Integral numbers with |f| < 1e15 print
   as integer digits written straight into the buffer, so counters and
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
   numbers as floats) for artefacts and wire frames, written as
   top-level functions over one [cursor], so no step allocates per
   byte. A string with no escape is one [String.sub]; up to 15 integer
   digits are read as an int, other numbers by [float_of_string].
   Nesting deeper than [max_depth] is rejected, so a hostile frame
   cannot make it recurse millions of levels. *)

let needs_escape c =
  c = '"' || c = '\\' || Char.code c < 0x20 || Char.code c >= 0x7f

let rec clean s i =
  i >= String.length s || ((not (needs_escape (String.unsafe_get s i))) && clean s (i + 1))

let add_escaped buf s =
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
  go 0

let escape s =
  if clean s 0 then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    add_escaped buf s;
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

(* A number [write] does not print as integer digits. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let shortest p = Printf.sprintf "%.*g" p f in
    let s = shortest 15 in
    if Float.equal (float_of_string s) f then s
    else
      let s = shortest 16 in
      if Float.equal (float_of_string s) f then s else shortest 17

(* Digits of [i >= 0], most significant first. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    let i = int_of_float f in
    if i < 0 then Buffer.add_char buf '-';
    add_digits buf (abs i)
  | Num f -> Buffer.add_string buf (number f)
  | Str s -> write_string buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    write_items buf true vs
  | Obj kvs ->
    Buffer.add_char buf '{';
    write_members buf true kvs

and write_string buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s else add_escaped buf s;
  Buffer.add_char buf '"'

and write_items buf first = function
  | [] -> Buffer.add_char buf ']'
  | v :: vs ->
    if not first then Buffer.add_char buf ',';
    write buf v;
    write_items buf false vs

and write_members buf first = function
  | [] -> Buffer.add_char buf '}'
  | (k, v) :: kvs ->
    if not first then Buffer.add_char buf ',';
    write_string buf k;
    Buffer.add_char buf ':';
    write buf v;
    write_members buf false kvs

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

type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Parse_error (msg, c.pos))
let at c ch = c.pos < c.n && Char.equal (String.unsafe_get c.s c.pos) ch
let advance c = c.pos <- c.pos + 1

let rec ws c =
  if c.pos < c.n then
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      advance c;
      ws c
    | _ -> ()

let expect c ch = if at c ch then advance c else fail c (Printf.sprintf "expected %c" ch)

let literal c l v =
  let k = String.length l in
  if c.pos + k <= c.n && String.equal (String.sub c.s c.pos k) l then begin
    c.pos <- c.pos + k;
    v
  end
  else fail c ("expected " ^ l)

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    if c.pos >= c.n then fail c "bad \\u escape";
    let d =
      match c.s.[c.pos] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

(* A high surrogate followed by an escaped low one is one code point;
   a lone surrogate has no UTF-8 form and reads as U+FFFD. *)
let code_point c =
  let v = hex4 c in
  let pair = c.pos + 1 < c.n && Char.equal c.s.[c.pos] '\\' && Char.equal c.s.[c.pos + 1] 'u' in
  if v < 0xD800 || v >= 0xDC00 || not pair then v
  else begin
    let save = c.pos in
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo >= 0xDC00 && lo < 0xE000 then 0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00)
    else begin
      c.pos <- save;
      v
    end
  end

(* The rest of a string from its first backslash, into [buf]. *)
let rec escaped c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match c.s.[c.pos] with
  | '"' -> advance c
  | '\\' ->
    advance c;
    (match if c.pos < c.n then c.s.[c.pos] else ' ' with
    | 'u' ->
      advance c;
      let v = code_point c in
      Buffer.add_utf_8_uchar buf (if Uchar.is_valid v then Uchar.of_int v else Uchar.rep)
    | ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as ch ->
      Buffer.add_char buf
        (match ch with
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | ch -> ch);
      advance c
    | _ -> fail c "bad escape");
    escaped c buf
  | ch when Char.code ch < 0x20 -> fail c "control char in string"
  | ch ->
    Buffer.add_char buf ch;
    advance c;
    escaped c buf

(* A string with no escape is one [String.sub] of the input. *)
let string_lit c =
  expect c '"';
  let start = c.pos in
  let rec scan () =
    if c.pos >= c.n then fail c "unterminated string";
    match String.unsafe_get c.s c.pos with
    | '"' ->
      advance c;
      String.sub c.s start (c.pos - 1 - start)
    | '\\' ->
      let buf = Buffer.create (c.pos - start + 16) in
      Buffer.add_substring buf c.s start (c.pos - start);
      escaped c buf;
      Buffer.contents buf
    | ch when Char.code ch < 0x20 -> fail c "control char in string"
    | _ ->
      advance c;
      scan ()
  in
  scan ()

let is_digit c = c.pos < c.n && match String.unsafe_get c.s c.pos with '0' .. '9' -> true | _ -> false

let digits c =
  let from = c.pos in
  while is_digit c do
    advance c
  done;
  if c.pos = from then fail c "expected digit"

(* Up to 15 integer digits with no fraction or exponent are below 2^53,
   so accumulating them as an int reads them exactly (-0 included);
   every other number goes through [float_of_string]. *)
let number_lit c =
  let start = c.pos in
  if at c '-' then advance c;
  let first = c.pos in
  digits c;
  if c.pos - first <= 15 && not (at c '.' || at c 'e' || at c 'E') then begin
    let acc = ref 0 in
    for i = first to c.pos - 1 do
      acc := (!acc * 10) + (Char.code c.s.[i] - Char.code '0')
    done;
    if first > start then -.float_of_int !acc else float_of_int !acc
  end
  else begin
    if at c '.' then begin
      advance c;
      digits c
    end;
    if at c 'e' || at c 'E' then begin
      advance c;
      if at c '+' || at c '-' then advance c;
      digits c
    end;
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some f -> f
    | None -> fail c "bad number"
  end

let closes c close = at c close && (advance c; true)

(* After an item: true past a ',', false past [close]. *)
let more c close =
  ws c;
  if at c ',' then begin
    advance c;
    true
  end
  else if closes c close then false
  else fail c (Printf.sprintf "expected , or %c" close)

let rec value c depth =
  ws c;
  if depth > max_depth then fail c "nesting too deep";
  if c.pos >= c.n then fail c "expected value";
  match String.unsafe_get c.s c.pos with
  | '{' ->
    advance c;
    Obj (members c depth [])
  | '[' ->
    advance c;
    Arr (items c depth [])
  | '"' -> Str (string_lit c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> Num (number_lit c)
  | _ -> fail c "expected value"

(* The members of an object after its opener, up to and past '}'. *)
and members c depth acc =
  ws c;
  if List.is_empty acc && closes c '}' then []
  else begin
    let k = string_lit c in
    ws c;
    expect c ':';
    let acc = (k, value c (depth + 1)) :: acc in
    if more c '}' then members c depth acc else List.rev acc
  end

and items c depth acc =
  ws c;
  if List.is_empty acc && closes c ']' then []
  else begin
    let acc = value c (depth + 1) :: acc in
    if more c ']' then items c depth acc else List.rev acc
  end

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  let v = value c 0 in
  ws c;
  if c.pos <> c.n then fail c "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse contents

(* Accessors used by the artefact tooling; [None] on shape mismatch. *)
let rec assoc k = function
  | [] -> None
  | (k', v) :: kvs -> if String.equal k k' then Some v else assoc k kvs

let member k = function Obj kvs -> assoc k kvs | _ -> None

let to_list = function Arr vs -> Some vs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
