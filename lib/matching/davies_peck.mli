(** Davies–Peck-style degree-class decomposition schedule over
    Israeli–Itai propose/respond dynamics: phase [j] lets only nodes
    of live degree in (Δ/2^{j+1}, Δ/2^j] propose, then an
    unrestricted cleanup runs to maximality. Matched endpoints form a
    2-approximate vertex cover. It is {!Packed_ii.gated} with the
    schedule as the gate: the same 3-word slice and coin word, so
    {!Ld_runtime.Packed.Port.reference_run} over {!machine} is an exact
    oracle (states and rounds) at any [LD_DOMAINS]. Degrees must be
    <= 62. *)

type schedule = {
  delta : int;  (** max degree the class boundaries are derived from *)
  iters_per_class : int;  (** propose/respond iterations per class *)
}

(** Bit length of [delta] — the number of degree classes before the
    unrestricted cleanup. *)
val classes : int -> int

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

val machine : seed:int -> sched:schedule -> Ld_runtime.Packed.Port.machine

(** [run ?sched ~seed ~max_rounds g] — [sched] defaults to
    [{delta = max_degree g; iters_per_class = 2}].
    @raise Failure if some node has not halted after [max_rounds]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ?sched:schedule ->
  seed:int ->
  max_rounds:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** [cover r] — node is in the cover iff matched. *)
val cover : result -> bool array

(** Every edge has a matched endpoint (true once the cleanup ran to
    maximality). *)
val is_vertex_cover : Ld_graph.Csr.t -> result -> bool
