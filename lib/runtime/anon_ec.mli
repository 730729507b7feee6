(** Synchronous execution of anonymous algorithms on EC multigraphs.

    A machine is a deterministic synchronous state machine: at every
    round each node broadcasts one message (the same on every incident
    dart — WLOG in the EC model, because the receiver already knows the
    shared edge colour and can project whatever colour-dependent content
    it needs out of its own dart name), then consumes the messages
    arriving on its darts and steps its state.

    {b Loop reflection.} On a dart that is a loop (semi-edge), the node
    receives the very message it sent on that dart. This makes execution
    on a multigraph [G] agree exactly, fiber by fiber, with execution on
    any lift of [G]: all members of a fiber carry identical states by
    induction on rounds, so the neighbour across a lifted loop edge sends
    precisely what the node itself sent. Consequently every machine run
    through this module satisfies the lift-invariance condition (2) of
    the paper by construction — this is how we "run algorithms on
    factor graphs" without materialising infinite universal covers.

    {b Scheduling.} Machines run on the active-set {!Engine}: each
    node's broadcast is computed once per round into a flat buffer
    (send-once caching; a halted node's message is computed once at halt
    time and reused forever), rounds walk a worklist of non-halted nodes
    (halted-frontier scheduling), and inboxes are lazy views over the
    graph's edge dart table and loop run — a [recv] that reads one dart
    costs one read, not degree allocations. At or above [par_threshold] active nodes a
    round fans out across domains in contiguous node ranges with a
    deterministic submission-order merge, so results are byte-identical
    to the sequential run. {!reference_run} is the dense differential
    oracle the qcheck suite compares against. *)

(** One round's incoming messages at a node: a zero-allocation view over
    the graph's edge dart table, its loop run and the executor's send
    buffer. Entries are the node's edges and loops, indexed
    [0 .. degree-1] in ascending colour order, and are only
    materialised when read — reads are tallied into the
    [runtime.ec.darts_scanned] counter. The view is only valid inside
    the [recv] call it is passed to; do not store it. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Colour of the [i]-th dart (ascending in [i]). Does not count as a
      dart read. Reading the darts in index order costs one step each;
      going back restarts the walk of the merged edges and loops.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val colour : 'msg t -> int -> int

  (** Message arriving on the [i]-th dart; a loop delivers the node's
      own broadcast.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val msg : 'msg t -> int -> 'msg

  (** Message arriving on the dart of the given colour, if any — a
      binary search over the node's edge segment, then its loop run. *)
  val find : 'msg t -> colour:int -> 'msg option

  (** [find] with [default] where the node has no dart of that colour:
      the same read, with no [Some] to allocate. *)
  val find_or : 'msg t -> colour:int -> default:'msg -> 'msg

  val fold : ('a -> colour:int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a

  (** The whole inbox as an assoc list sorted by colour — the historic
      dense representation; allocates, intended for tests/debugging. *)
  val to_list : 'msg t -> (int * 'msg) list
end

(** A node's dart colours at initialisation, edges and loops merged in
    ascending order: a view over the graph's edge table and loop run,
    valid only inside the [init] call it is passed to. *)
module Colours : sig
  type t

  val degree : t -> int

  (** The [i]-th colour (ascending in [i]). Reading in index order
      costs one step each, and the last colour is read directly.
      @raise Invalid_argument unless [0 <= i < degree]. *)
  val get : t -> int -> int
end

type ('state, 'msg) machine = {
  init : Colours.t -> 'state;
      (** Initial state from the node's colours. A machine must not
          keep the view in its state — copy out whatever colours it
          needs. *)
  send : 'state -> 'msg;
      (** The node's broadcast message for the coming round. Must be a
          pure function of the state: the executor calls it once per
          round per active node (and once, ever, per halted state). *)
  recv : 'state -> 'msg Inbox.t -> 'state;
      (** Consume one round's inbox. *)
  halted : 'state -> bool;
      (** Once true, the node's state is frozen (its broadcast continues
          to be delivered, computed once from the frozen state). *)
}

(** Active-node count above which a round is fanned out across domains
    (when the effective domain count exceeds 1). *)
val default_par_threshold : int

(** [run machine ~rounds g] executes exactly [rounds] rounds (halted
    nodes frozen; rounds in which every node has halted are skipped — a
    no-op by the frozen-state contract) and returns the final states.

    @param par_threshold see {!default_par_threshold}.
    @param domains domain budget for parallel rounds; defaults to
      [Ld_pool.Pool.default_domains ()]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  rounds:int ->
  Ld_models.Ec.t ->
  's array

(** [run_until machine ~max_rounds g] stops as soon as every node has
    halted (or after [max_rounds]); returns final states and the number
    of rounds executed. Parameters as in {!run}.
    @raise Invalid_argument if [max_rounds < 0] (as {!run} for
      [rounds < 0]). *)
val run_until :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  max_rounds:int ->
  Ld_models.Ec.t ->
  's array * int

(** The dense executor: every send recomputed, every non-halted inbox
    walked, halting by full scan each round. Same result as
    {!run_until}; the differential oracle for tests, touching no
    counter. *)
val reference_run :
  ('s, 'm) machine -> max_rounds:int -> Ld_models.Ec.t -> 's array * int
