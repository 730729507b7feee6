(* Length-prefixed JSON framing shared by `ld serve` and `ld load`; the
   frame contract is documented in wire.mli. *)

module Json = Ld_obs.Json

exception Closed
exception Bad_frame of int

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

module Framer = struct
  (* [want < 0]: [got] header bytes are in [hdr]. Otherwise [got] of the
     [want] body bytes are in [body], which holds at least [got] + 1. *)
  type t = { hdr : Bytes.t; mutable body : Bytes.t; mutable want : int; mutable got : int }

  let initial_body = 1 lsl 16 (* 64 KiB *)

  let create () = { hdr = Bytes.create 4; body = Bytes.empty; want = -1; got = 0 }

  let space t =
    if t.want < 0 then (t.hdr, t.got, 4 - t.got) else (t.body, t.got, Bytes.length t.body - t.got)

  let finish t payload =
    t.body <- Bytes.empty;
    t.want <- -1;
    t.got <- 0;
    Some payload

  let advance t n =
    if n = 0 then raise Closed;
    t.got <- t.got + n;
    if t.want < 0 then begin
      if t.got < 4 then None
      else
        (* Unsigned, so 0x80000000 reports as itself, not as a negative. *)
        let want = Int32.to_int (Bytes.get_int32_be t.hdr 0) land 0xffff_ffff in
        if want > max_frame then raise (Bad_frame want);
        if want = 0 then finish t ""
        else begin
          t.want <- want;
          t.body <- Bytes.create (min want initial_body);
          t.got <- 0;
          None
        end
    end
    else if t.got = t.want then
      (* No copy: [finish] drops [t.body], and nothing writes it again. *)
      finish t (Bytes.unsafe_to_string t.body)
    else begin
      if t.got = Bytes.length t.body then begin
        let b = Bytes.create (min t.want (2 * t.got)) in
        Bytes.blit t.body 0 b 0 t.got;
        t.body <- b
      end;
      None
    end
end

let recv fd =
  let t = Framer.create () in
  let rec loop () =
    let buf, off, len = Framer.space t in
    match Framer.advance t (Unix.read fd buf off len) with Some p -> p | None -> loop ()
  in
  loop ()

(* ---- typed accessors for request objects ---- *)

let str_member k v = Option.bind (Json.member k v) Json.to_string

(* Only integers a float holds exactly (|f| <= 2^53) convert: beyond
   the int range [int_of_float] is unspecified (1e300 gives 0). *)
let int_member k v =
  match Option.bind (Json.member k v) Json.to_float with
  | Some f when Float.is_integer f && Float.abs f <= 0x1p53 -> Some (int_of_float f)
  | _ -> None
