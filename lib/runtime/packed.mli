(** Packed-state synchronous executor.

    Per-node state lives in one flat int array of [n * state_words]
    words, per-dart messages in [msg_words] ints of another — no boxed
    records and no per-round allocation, which is what keeps a round
    over 10^6 nodes bandwidth-bound instead of GC-bound. The executor
    only sizes [st]; each machine chooses its layout (node-major
    slices [node * state_words ..] for Israeli–Itai and Davies–Peck,
    field-major columns [k * n + node] for Panconesi–Rizzi), reads and
    writes its node's words in place and reads peers' message slices
    directly.

    Rounds run on the same {!Engine} as the anonymous executors. The one
    differential oracle is {!Port.reference_run}, the dense
    counterpart of [Anon.reference]: every packed machine must reach
    the same state array, round count and halting flag on both (see
    test_runtime.ml). A recv or send writes only its own node's state
    words and message slots, so parallel ranges touch disjoint words
    and results are byte-identical at any [LD_DOMAINS]. *)

type stats = {
  rounds : int;  (** synchronous rounds executed *)
  sends : int;  (** message slots written (including the initial broadcast) *)
  darts_scanned : int;  (** inbox slots visible to recv phases *)
}

val default_par_threshold : int

(** Port executor for the ID model over a simple-graph CSR: one
    [msg_words] message per dart and round; the message node [v] sends
    on port [p] lives at [(row.(v) + p) * msg_words] and is read back
    by the far endpoint through the precomputed {!Ld_graph.Csr.mirror}
    array, one load per message. A halted sender's final messages stay
    in its slots. *)
module Port : sig
  type machine = {
    state_words : int;
        (** [st] has [n * state_words] words; where node [v]'s words
            sit in it is the machine's choice *)
    msg_words : int;
    init : g:Ld_graph.Csr.t -> st:int array -> node:int -> unit;
    send : g:Ld_graph.Csr.t -> st:int array -> out:int array -> node:int -> unit;
        (** write all of the node's per-port message slices *)
    recv :
      g:Ld_graph.Csr.t -> mirror:int array -> st:int array -> out:int array ->
      node:int -> unit;
        (** the message arriving on port [p] is at
            [mirror.(row.(node)+p) * msg_words]; [mirror] is
            {!Ld_graph.Csr.mirror}[ g], computed once per run *)
    halted : st:int array -> node:int -> bool;
  }

  (** Runs until every node halts or [max_rounds] is reached. Returns
      the flat state array, per-run traffic, and whether all nodes
      halted. @raise Invalid_argument if [max_rounds < 0]. *)
  val run_until :
    ?par_threshold:int ->
    ?domains:int ->
    machine ->
    max_rounds:int ->
    Ld_graph.Csr.t ->
    int array * stats * bool

  (** The dense oracle: each round every non-halted node receives, then
      every node (halted ones too) sends, and a full scan checks
      halting. Returns the state array, the rounds run and whether all
      nodes halted — the same triple as {!run_until} for any
      [max_rounds >= 0] when [send] is a function of the node's state.
      Sequential, touching no counter. *)
  val reference_run :
    machine -> max_rounds:int -> Ld_graph.Csr.t -> int array * int * bool
end

(** Deterministic per-node coin stream for packed randomized machines
    (a [Random.State] cannot live in an int slice). One word of state,
    splitmix-style mixing, kept in the node's slice — so the coins are
    part of the state {!Port.reference_run} compares, and the
    comparison is exact. *)
module Coin : sig
  (** Initial stream state for a node. *)
  val seed : seed:int -> node:int -> int

  (** Advance the stream one draw. *)
  val next : int -> int

  (** Extract a bool from a stream state. *)
  val bool : int -> bool

  (** Extract a uniform-ish int in [0, bound) from a stream state.
      @raise Invalid_argument if [bound <= 0]. *)
  val int : int -> int -> int
end
