(** Packed-state synchronous executor.

    Per-node state lives in one flat int array of [n * state_words]
    words, per-dart messages in [msg_words] ints of another — no boxed
    records and no per-round allocation, which is what keeps a round
    over 10^6 nodes bandwidth-bound instead of GC-bound. The executor
    only sizes [st]; each machine chooses its layout (3-word node-major
    slices [node * 3 ..] for Israeli–Itai and Davies–Peck, field-major
    columns [k * n + node] for Panconesi–Rizzi), reads and writes its
    nodes' words in place and reads peers' message slices directly.

    A machine's callbacks take a whole range of nodes, so the per-node
    loop and every per-node call live in the machine's own module:
    across modules a call is an indirect call the compiler cannot
    inline (dev builds compile each module [-opaque]), and a 10^6-node
    round makes millions of them.

    Rounds run on the same {!Engine} as the anonymous executors. The one
    differential oracle is {!Port.reference_run}, the dense
    counterpart of [Anon.reference]: every packed machine must reach
    the same state array, round count and halting flag on both (see
    test_runtime.ml). A recv or send writes only its own nodes' state
    words, message slots and frozen bytes, so parallel ranges touch
    disjoint words and results are byte-identical at any
    [LD_DOMAINS]. *)

type stats = {
  rounds : int;  (** synchronous rounds executed *)
  sends : int;  (** message slots written (including the initial broadcast) *)
  darts_scanned : int;  (** inbox slots visible to recv phases *)
}

val default_par_threshold : int

(** Port executor for the ID model over a simple-graph CSR: one
    [msg_words] message per dart and round; the message node [v] sends
    on port [p] lives at [(row.(v) + p) * msg_words] and is read back
    by the far endpoint through the graph's [mirror] array
    ({!Ld_graph.Csr.t}, built once with the graph), one load per
    message. A halted sender's final messages stay in its slots. *)
module Port : sig
  type machine = {
    state_words : int;
        (** [st] has [n * state_words] words; where node [v]'s words
            sit in it is the machine's choice *)
    msg_words : int;
    init : g:Ld_graph.Csr.t -> st:int array -> lo:int -> hi:int -> unit;
        (** write the initial state of nodes [lo, hi) *)
    send :
      g:Ld_graph.Csr.t -> st:int array -> out:int array -> frozen:Bytes.t ->
      int array -> lo:int -> hi:int -> unit;
        (** [send ~g ~st ~out ~frozen nodes ~lo ~hi]: for each node
            [v = nodes.(k)], [k] in [lo, hi), write all of [v]'s
            per-port message slices, and set [frozen] byte [v] to a
            nonzero value iff [v]'s state is halted (halting is a
            function of the state; a halted node never receives
            again) *)
    recv :
      g:Ld_graph.Csr.t -> st:int array -> out:int array -> int array ->
      lo:int -> hi:int -> unit;
        (** one receive step of each node [nodes.(k)], [k] in
            [lo, hi); the message arriving on port [p] of [v] is at
            [g.mirror.(row.(v)+p) * msg_words] *)
  }

  (** Runs until every node halts or [max_rounds] is reached. Returns
      the flat state array, per-run traffic, and whether all nodes
      halted. The [runtime.packed.init] span covers the state and
      message arrays and the initial broadcast (the mirror comes with
      [g]); the rest of the [runtime.packed.port] span is rounds. A run
      allocates no per-dart table besides the messages.
      @raise Invalid_argument if [max_rounds < 0]. *)
  val run_until :
    ?par_threshold:int ->
    ?domains:int ->
    machine ->
    max_rounds:int ->
    Ld_graph.Csr.t ->
    int array * stats * bool

  (** The dense oracle: each round every non-halted node receives, then
      every node (halted ones too) sends, and the halting flags are
      recomputed from scratch. Returns the state array, the rounds run
      and whether all nodes halted — the same triple as {!run_until}
      for any [max_rounds >= 0] when [send] is a function of the
      node's state. Sequential, one range per phase, touching no
      counter. *)
  val reference_run :
    machine -> max_rounds:int -> Ld_graph.Csr.t -> int array * int * bool
end
