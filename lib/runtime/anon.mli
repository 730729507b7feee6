(** Shared body of {!Anon_ec} and {!Anon_po}: the broadcast front-end on
    {!Engine} and the dense differential oracle, both over the model's
    dart table ({!Ld_models.Darts}). A dart is named by its key,
    ascending along each node's segment: its colour in EC, its
    direction-tagged colour in PO. *)

(** Loops kept apart from the dart table (EC): node [v]'s loop keys are
    [lkeys.(lrow.(v)) .. lkeys.(lrow.(v + 1) - 1)], ascending. A loop
    reflects: it delivers the node's own broadcast. *)
type loops = { lrow : int array; lkeys : int array }

(** One round's incoming messages at a node: a zero-allocation cursor
    over its dart table segment, its loop run and the executor's
    broadcast buffer. Entries are the node's darts and loops, indexed
    [0 .. degree-1] in ascending key order, and are only materialised
    when read: reads are tallied into the family's [darts_scanned]
    counter. A view is valid only inside the call it is passed to. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Key of the [i]-th entry (ascending in [i]); not a dart read.
      Reading the entries in index order costs one step each; going
      back restarts the walk of the merged darts and loops, and the last
      entry is reached directly.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val key : 'msg t -> int -> int

  (** Message arriving on the [i]-th entry; a loop delivers the node's
      own broadcast.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val msg : 'msg t -> int -> 'msg

  (** Message arriving on the entry with the given key, if any: a
      binary search of the dart segment, then of the loop run. *)
  val find : 'msg t -> int -> 'msg option

  (** [find] with [default] for a missing entry; allocates nothing. *)
  val find_or : 'msg t -> int -> default:'msg -> 'msg

  val fold : ('a -> int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a
end

(** An anonymous synchronous machine, run by {!Anon_ec} on EC graphs
    and by {!Anon_po} on PO graphs. At every round each node broadcasts
    one message (the same on every incident dart: WLOG, because the
    receiver knows each dart's key and can project whatever
    key-dependent content it needs), then consumes the messages arriving
    on its darts and steps its state. A node names its darts by their
    int keys ({!Ld_models.Darts}): the colour in EC, the
    {!Ld_models.Darts.po_key} in PO (read back with
    {!Ld_models.Darts.is_out} and {!Ld_models.Darts.colour}). *)
type ('state, 'msg) machine = {
  init : unit Inbox.t -> 'state;
      (** Initial state from the node's keys: an inbox with no messages
          behind it (reading a message raises), valid only inside the
          call. A machine must not keep the view in its state; it copies
          out whatever keys it needs. *)
  send : 'state -> 'msg;
      (** The node's broadcast for the coming round. Must be a pure
          function of the state: the executor calls it once per round
          per active node (and once, ever, per halted state). *)
  recv : 'state -> 'msg Inbox.t -> 'state;
      (** Consume one round's inbox, valid only inside the call. *)
  halted : 'state -> bool;
      (** Once true, the node's state is frozen (its broadcast continues
          to be delivered, computed once from the frozen state). *)
}

(** The engine family [prefix.*] plus the inbox counters
    [prefix.{darts_scanned,loop_reflected,sends,send_cache_hits}]. *)
type family

val family : string -> family

(** [run fam ... machine g] runs the active-set executor from every
    node's [init] state and returns the final states and the number of
    rounds run. [loops] defaults to none: PO keeps its loop darts in
    the table, where a loop dart's far end is the node itself. *)
val run :
  family ->
  par_threshold:int ->
  domains:int option ->
  limit:int ->
  ?loops:loops ->
  ('s, 'm) machine ->
  Ld_models.Darts.t ->
  's array * int

(** The dense oracle: every broadcast recomputed and every non-halted
    inbox walked each round, halting by full scan. Touches no counter. *)
val reference :
  limit:int -> ?loops:loops -> ('s, 'm) machine -> Ld_models.Darts.t -> 's array * int
