(** Shared body of {!Anon_ec} and {!Anon_po}: the broadcast front-end on
    {!Engine} and the dense differential oracle, both over the model's
    dart table ({!Ld_models.Darts}). A dart is named by its key,
    ascending along each node's segment: its colour in EC, its
    direction-tagged colour in PO. *)

(** Loops kept apart from the dart table (EC): node [v]'s loop keys are
    [lkeys.(lrow.(v)) .. lkeys.(lrow.(v + 1) - 1)], ascending. A loop
    reflects: it delivers the node's own broadcast. *)
type loops = { lrow : int array; lkeys : int array }

(** No loops outside the table (PO keeps its loop darts in the table,
    where a loop dart's far end is the node itself). *)
val no_loops : loops

(** A node's inbox: a cursor over its dart table segment, its loop run
    and the broadcast buffer. Entries are its darts and loops merged in
    key order. Reads are tallied per cursor. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Key of the [i]-th entry; not a dart read. Reading the entries in
      index order costs one step each.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val key : 'msg t -> int -> int

  (** @raise Invalid_argument unless [0 <= i < degree]. *)
  val msg : 'msg t -> int -> 'msg

  (** Binary search for the entry with the given key: the dart segment,
      then the loop run. *)
  val find : 'msg t -> int -> 'msg option

  (** [find] with [default] for a missing entry; allocates nothing. *)
  val find_or : 'msg t -> int -> default:'msg -> 'msg

  val fold : ('a -> int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a
end

(** [init ?loops g f] is every node's initial state: [f] gets the
    node's inbox with no messages behind it, for its keys and degree
    (reading a message raises). [loops] defaults to {!no_loops}. *)
val init : ?loops:loops -> Ld_models.Darts.t -> (unit Inbox.t -> 's) -> 's array

(** The engine family [prefix.*] plus the inbox counters
    [prefix.{darts_scanned,loop_reflected,sends,send_cache_hits}]. *)
type family

val family : string -> family

(** [run fam ... g states] runs the active-set executor from the
    initial [states] (updated in place) and returns the final states and
    the number of rounds run. [loops] defaults to {!no_loops}. *)
val run :
  family ->
  par_threshold:int ->
  domains:int option ->
  limit:int ->
  send:('s -> 'm) ->
  recv:('s -> 'm Inbox.t -> 's) ->
  halted:('s -> bool) ->
  ?loops:loops ->
  Ld_models.Darts.t ->
  's array ->
  's array * int

(** The dense oracle: every broadcast recomputed and every non-halted
    inbox walked each round, halting by full scan. Touches no counter. *)
val reference :
  limit:int ->
  send:('s -> 'm) ->
  recv:('s -> 'm Inbox.t -> 's) ->
  halted:('s -> bool) ->
  ?loops:loops ->
  Ld_models.Darts.t ->
  's array ->
  's array * int
