(** Packed Israeli–Itai-style randomized maximal matching on the
    {!Ld_runtime.Packed.Port} executor — the mega-scale bench
    workload. Coins come from a one-word splitmix stream kept in the
    state slice, so {!Ld_runtime.Packed.Port.reference_run} over
    {!machine} is an exact oracle: identical states and rounds at any
    [LD_DOMAINS]. Degrees must be <= 62 (live ports are a bitmask in
    one state word). *)

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

val machine : seed:int -> Ld_runtime.Packed.Port.machine

(** {2 The gated kernel}

    {!machine} is {!gated} with a gate that always passes;
    {!Davies_peck} runs it with its degree-class gate. The per-node
    loop of every phase lives in this module. *)

(** A gate on the proposal draw: in iteration [i], with
    [j = i / iters_per_class < classes], a node may propose only if its
    live degree is in [(delta / 2^{j+1}, delta / 2^j]]; from class
    [classes] on every node may. *)
type gate = { delta : int; iters_per_class : int; classes : int }

(** [gated ~who ~seed gate] — the propose/respond machine with coins
    seeded from [(seed, node)] and the proposal draw gated by [gate].
    Its [init] raises [Invalid_argument (who ^ ": degree > 62")] on a
    node of degree above 62. *)
val gated : who:string -> seed:int -> gate -> Ld_runtime.Packed.Port.machine

(** {2 Propose/respond transitions}

    The per-node transitions {!gated} runs, over a node's slice at base
    [b] of the state array; {!Israeli_itai} runs them with
    [Random.State] coins. A slice is {!words} words: coin, live-port
    mask, and a control word holding the matched, proposal and accept
    ports (each port + 1 in a 7-bit field, 0 for none) at bits 0, 8
    and 16, the phase at bit 7 and the finished-iteration count from
    bit 24. Nothing here allocates. *)

(** Words of a slice (3). *)
val words : int

(** Number of set bits. *)
val popcount : int -> int

(** The live-port mask of the slice at base [b]. *)
val live : int array -> int -> int

(** [init ~who st b ~seed ~node ~degree] writes the initial slice (no
    proposal drawn yet). @raise Invalid_argument, naming [who], if
    [degree > 62]. *)
val init :
  who:string -> int array -> int -> seed:int -> node:int -> degree:int -> unit

(** [propose st b k] sets the proposal to the [k]-th live port
    (0-based, ascending); [k] must be below the live-port count. *)
val propose : int array -> int -> int -> unit

(** Clears the proposal. *)
val no_proposal : int array -> int -> unit

(** A {!Ld_runtime.Packed.Port.machine} [send]: one word per dart, the
    matched bit plus the propose bit on the proposal port (propose
    phase) or the accept bit on the accept port (respond phase); a
    node that is matched, or out of live ports between iterations, is
    marked halted. *)
val send :
  g:Ld_graph.Csr.t -> st:int array -> out:int array -> frozen:Bytes.t ->
  int array -> lo:int -> hi:int -> unit

(** One receive step of the node at base [b]; the message on port [p]
    is [out.(mirror.(row.(node) + p))]. Returns [true] after a respond
    round, which ends an iteration: the caller must then draw the next
    proposal ({!propose} or {!no_proposal}). *)
val step :
  row:int array -> mirror:int array -> out:int array -> int array -> int ->
  node:int -> bool

(** The mate array of a final state array.
    @raise Failure, naming [who], if it is not symmetric. *)
val mates : who:string -> Ld_graph.Csr.t -> int array -> int array

(** [run_machine ~who m ~max_rounds g] runs a machine over this
    module's slices and extracts its mates.
    @raise Failure, naming [who], if some node has not halted after
    [max_rounds] rounds or the matching is asymmetric. *)
val run_machine :
  ?par_threshold:int ->
  ?domains:int ->
  who:string ->
  Ld_runtime.Packed.Port.machine ->
  max_rounds:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** @raise Failure if some node has not halted after [max_rounds]
    rounds, or if the matching comes out asymmetric (a protocol bug,
    checked on extraction). *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  seed:int ->
  max_rounds:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** Sanity check: the mate array is a symmetric matching with no edge
    joining two unmatched nodes. *)
val is_maximal : Ld_graph.Csr.t -> result -> bool
