(** Shared body of {!Anon_ec} and {!Anon_po}: the broadcast front-end on
    {!Engine} and the dense differential oracle. A dart is named by an
    int key, ascending along each node's CSR segment: its colour in EC,
    its direction-tagged colour in PO. *)

(** A node's inbox: a cursor over its CSR dart segment and the
    broadcast buffer. Reads are tallied per cursor. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Key of the [i]-th dart; not a dart read. *)
  val key : 'msg t -> int -> int

  val msg : 'msg t -> int -> 'msg

  (** Binary search for the dart with the given key. *)
  val find : 'msg t -> int -> 'msg option

  val fold : ('a -> int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a
end

type csr = { row : int array; keys : int array; others : int array }

(** The engine family [prefix.*] plus the inbox counters
    [prefix.{darts_scanned,loop_reflected,sends,send_cache_hits}]. *)
type family

val family : string -> family

(** [run fam ... g states] runs the active-set executor from the
    initial [states] (updated in place) and returns the final states and
    the number of rounds run. *)
val run :
  family ->
  par_threshold:int ->
  domains:int option ->
  limit:int ->
  send:('s -> 'm) ->
  recv:('s -> 'm Inbox.t -> 's) ->
  halted:('s -> bool) ->
  csr ->
  's array ->
  's array * int

(** The dense oracle: every broadcast recomputed and every non-halted
    inbox walked each round, halting by full scan. Touches no counter. *)
val reference :
  limit:int ->
  send:('s -> 'm) ->
  recv:('s -> 'm Inbox.t -> 's) ->
  halted:('s -> bool) ->
  csr ->
  's array ->
  's array * int
