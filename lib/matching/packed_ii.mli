(** Packed Israeli–Itai-style randomized maximal matching on the
    {!Ld_runtime.Packed.Port} executor — the mega-scale bench
    workload. Coins come from the one-word {!Ld_runtime.Packed.Coin}
    stream (a [Random.State] cannot live in an int slice) kept in the
    state slice, so {!Ld_runtime.Packed.Port.reference_run} over
    {!machine} is an exact oracle: identical states and rounds at any
    [LD_DOMAINS]. Degrees must be <= 62 (live ports are a bitmask in
    one state word). *)

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

val machine : seed:int -> Ld_runtime.Packed.Port.machine

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
