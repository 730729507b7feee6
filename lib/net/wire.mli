(** Length-prefixed JSON framing shared by [ld serve] and [ld load].

    One frame is a 4-byte big-endian payload length followed by the
    payload, which is JSON text: a batch is an array of request objects
    and its response an equal-length array of response objects, in
    order. The framing lets both sides read exactly one message without
    a streaming JSON parser.

    A length field is read as an unsigned 32-bit integer and must lie
    in [\[0, max_frame\]]; anything larger raises {!Bad_frame}. {!Framer}
    is the one reassembler: {!recv} and the [ld serve] select loop both
    read through it. It never allocates what a length field asks for
    before the bytes arrive: a body buffer starts at
    [min length 64 KiB] and doubles, capped at the length, as it fills,
    so a frame of at most 64 KiB allocates its length once and a
    hostile header costs at most about twice the bytes received. *)

exception Closed
(** The peer closed the stream: a read returned 0 bytes, mid-frame or
    between frames. *)

exception Bad_frame of int
(** A frame header announced this length, which is above {!max_frame}.
    The stream cannot be resynchronised. *)

val max_frame : int
(** 64 MiB. *)

val frame : string -> string
(** [frame payload] is the header followed by [payload].
    @raise Invalid_argument if [payload] is longer than {!max_frame}. *)

val send : Unix.file_descr -> string -> unit
(** Writes [frame payload] to the descriptor, looping on short writes. *)

(** Incremental, fd-free frame reassembly. A reader asks for the slot
    the next read should fill, reads into it, and reports how many
    bytes it got. The slot never extends past the current frame, so a
    reader never consumes bytes of the next frame. *)
module Framer : sig
  type t

  val create : unit -> t
  (** A reassembler expecting a frame header. *)

  val space : t -> Bytes.t * int * int
  (** [(buf, off, len)] with [len > 0]: the next read fills
      [buf.\[off .. off + len - 1\]]. The first reads of a frame fill
      the header, the rest its body. *)

  val advance : t -> int -> string option
  (** [advance t n] records that the last read put [n] bytes
      ([0 <= n <= len] of the last {!space}) into the slot. [Some payload]
      when that completes a frame (the payload is the body buffer
      itself, not a copy), [None] otherwise.
      @raise Closed if [n = 0].
      @raise Bad_frame when a completed header is above {!max_frame}. *)
end

val recv : Unix.file_descr -> string
(** Reads one frame's payload, blocking, through a fresh {!Framer}.
    @raise Closed if the peer closes the stream first.
    @raise Bad_frame on a header above {!max_frame}. *)

(** {1 Typed accessors for request objects} *)

val str_member : string -> Ld_obs.Json.value -> string option
(** [str_member k v] is the string field [k] of object [v]. *)

val int_member : string -> Ld_obs.Json.value -> int option
(** [int_member k v] is the numeric field [k] of object [v] when it is
    an integer a float holds exactly ([|f| <= 2^53]); [None] otherwise
    (so [1e300] is no integer). *)
