(** Synchronous LOCAL simulator for identifier-based networks (§1.4).

    Nodes are state machines over an ID-graph: in each round every
    non-halted node sends one (optional) message per port, receives the
    messages of its neighbours, and updates its state. A node halts by
    announcing an output; its state then freezes (frozen nodes keep
    "sending" whatever their frozen state prescribes, which is how the
    standard model treats stopped processors).

    Ports are [0 .. deg-1], in sorted-neighbour order. Randomised
    algorithms draw from the per-node generator supplied to [init],
    seeded deterministically from [(seed, id)] for reproducibility.

    {b Scheduling.} The simulator runs receiver-driven over an active
    worklist: each round costs O(active nodes and their ports), halted
    nodes drop off the worklist, and a halted sender's per-port messages
    are computed once at halt time and cached ([send] must therefore be
    a pure function of the state — randomised machines keep their draws
    in [init]/[recv], as Israeli–Itai does).

    Israeli–Itai is the one library machine on this simulator: its
    [Random.State] stream is seeded by [(seed, id)] over arbitrary ID
    graphs, which packed machines (no ids, {!Packed.Coin} coins) do not
    model. *)

type ('state, 'msg, 'out) machine = {
  init : id:int -> degree:int -> rng:Random.State.t -> 'state;
  send : 'state -> port:int -> 'msg option;
  recv : 'state -> (int * 'msg) list -> 'state;
      (** Inbox holds [(port, message)] pairs, sorted by port. *)
  output : 'state -> 'out option;
      (** [Some o] means the node has halted with local output [o]. *)
}

type 'out result = {
  outputs : 'out array;
  rounds : int;  (** Rounds until the last node halted. *)
}

(** [run machine ~seed ~max_rounds g] executes until every node halts.
    @raise Failure if some node has not halted after [max_rounds]. *)
val run :
  ('s, 'm, 'o) machine -> seed:int -> max_rounds:int ->
  Ld_models.Labelled.Id.t -> 'o result
