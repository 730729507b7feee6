(* Length-prefixed JSON framing shared by `ld serve` and `ld load`.

   One frame = a 4-byte big-endian payload length followed by the
   payload, which is JSON text: a batch is an array of request
   objects and its response an equal-length array of response
   objects, in order. The framing lets both sides read exactly one
   message without a streaming JSON parser, and the length cap keeps
   a garbled header from provoking a multi-gigabyte allocation. *)

module Json = Ld_obs.Json

exception Closed
(** Peer closed the connection mid-frame. *)

let max_frame = 1 lsl 26 (* 64 MiB *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Header and payload as one string, so a frame goes out in (usually)
   one syscall. *)
let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire.frame: frame too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* `send` here is the socket frame writer, not a machine transition;
   the name-based transition heuristic cannot tell them apart and the
   I/O is the whole point. *)
(* ld-lint: allow machine-purity — socket writer, not a transition *)
let send fd payload =
  let f = frame payload in
  write_all fd f 0 (String.length f)

let rec read_exact fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise Closed;
    read_exact fd buf (off + n) (len - n)
  end

let recv fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if n < 0 || n > max_frame then failwith "Wire.recv: bad frame length";
  let b = Bytes.create n in
  read_exact fd b 0 n;
  Bytes.unsafe_to_string b

(* ---- JSON rendering ----

   [Ld_obs.Json] is parse-only (the artefact emitters print their JSON
   by hand); the protocol builds values programmatically, so render
   the [value] tree here. Integral floats print without an exponent or
   decimal point — counters and ids round-trip exactly. *)

let render_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec render = function
  | Json.Null -> "null"
  | Json.Bool b -> if b then "true" else "false"
  | Json.Num f -> render_num f
  | Json.Str s -> "\"" ^ Json.escape s ^ "\""
  | Json.Arr vs -> "[" ^ String.concat "," (List.map render vs) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> "\"" ^ Json.escape k ^ "\":" ^ render v)
           kvs)
    ^ "}"

(* ---- typed accessors for request objects ---- *)

let str_member k v = Option.bind (Json.member k v) Json.to_string

let int_member k v =
  match Option.bind (Json.member k v) Json.to_float with
  | Some f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
