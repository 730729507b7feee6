(** Synchronous execution of anonymous algorithms on PO multigraphs.

    Every arc is a bidirectional communication link (the orientation is
    symmetry-breaking information, not a restriction on messages), so a
    node holds one dart per incident arc end: an [Out] dart at the tail
    and an [In] dart at the head. A node names its darts by direction and
    colour — legal because out-colours are distinct and in-colours are
    distinct in a PO graph. Like {!Anon_ec}, machines broadcast: one
    message per node per round, delivered on every incident dart (WLOG —
    the receiver knows each dart's direction and colour and can project).

    {b Loop reflection.} A directed loop contributes an [Out] dart and an
    [In] dart. In any lift, the loop unfolds into a directed cycle
    through the fiber, so the message sent on the [Out] dart arrives on
    the node's own [In] dart of the same colour, and vice versa.

    {b Scheduling.} The same code as {!Anon_ec}, through {!Anon}: the
    active-set {!Engine} with send-once caching, lazy CSR-backed inboxes
    and optional domain-parallel rounds; {!reference_run} is the dense
    differential oracle. *)

type dart_key = { out : bool; colour : int }

(** One round's incoming messages at a node: a zero-allocation view over
    the CSR dart arrays, indexed [0 .. degree-1] with out-darts first
    (ascending colour) then in-darts (ascending colour). Valid only
    inside the [recv] call it is passed to. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Key of the [i]-th dart. Does not count as a dart read. *)
  val key : 'msg t -> int -> dart_key

  (** Message arriving on the [i]-th dart. *)
  val msg : 'msg t -> int -> 'msg

  (** Message arriving on the dart with the given key, if any — a binary
      search over the node's (direction, colour)-sorted dart segment. *)
  val find : 'msg t -> key:dart_key -> 'msg option

  val fold : ('a -> key:dart_key -> 'msg -> 'a) -> 'a -> 'msg t -> 'a

  (** The whole inbox as an assoc list in dart order — the historic
      dense representation; allocates, intended for tests/debugging. *)
  val to_list : 'msg t -> (dart_key * 'msg) list
end

type ('state, 'msg) machine = {
  init : darts:dart_key list -> 'state;
  send : 'state -> 'msg;
      (** Broadcast for the coming round; must be pure in the state. *)
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

(** Active-node count above which a round is fanned out across domains. *)
val default_par_threshold : int

(** As {!Anon_ec.run}. @raise Invalid_argument if [rounds < 0]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  rounds:int ->
  Ld_models.Po.t ->
  's array

(** As {!Anon_ec.run_until}. @raise Invalid_argument if [max_rounds < 0]. *)
val run_until :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  max_rounds:int ->
  Ld_models.Po.t ->
  's array * int

(** The dense differential oracle, as {!Anon_ec.reference_run}. *)
val reference_run :
  ('s, 'm) machine -> max_rounds:int -> Ld_models.Po.t -> 's array * int
