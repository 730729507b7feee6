(** Packed Israeli–Itai-style randomized maximal matching on the
    {!Ld_runtime.Packed.Port} executor — the mega-scale bench
    workload. Coins come from the one-word {!Ld_runtime.Packed.Coin}
    stream kept in the state slice, so
    {!Ld_runtime.Packed.Port.reference_run} over {!machine} is an exact
    oracle: identical states and rounds at any [LD_DOMAINS]. Degrees
    must be <= 62 (live ports are a bitmask in one state word). *)

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

val machine : seed:int -> Ld_runtime.Packed.Port.machine

(** {2 Propose/respond core}

    The transitions {!machine} runs, over a node's slice at base [b]
    of the state array; {!Davies_peck} runs the same core over a wider
    slice, and {!Israeli_itai} with [Random.State] coins. The first
    {!words} words of a slice are: coin, live-port mask, matched port,
    phase, proposal port, accept port. Nothing here allocates. *)

(** Words of the core slice (6). *)
val words : int

(** Number of set bits. *)
val popcount : int -> int

(** The live-port mask of the slice at base [b]. *)
val live : int array -> int -> int

(** [init ~who st b ~seed ~node ~degree] writes the initial core slice
    (no proposal drawn yet). @raise Invalid_argument, naming [who], if
    [degree > 62]. *)
val init :
  who:string -> int array -> int -> seed:int -> node:int -> degree:int -> unit

(** [propose st b k] sets the proposal to the [k]-th live port
    (0-based, ascending); [k] must be below the live-port count. *)
val propose : int array -> int -> int -> unit

(** Draws the next proposal port from the coin word: none if no port is
    live or [eligible] is false (no coin is then consumed). *)
val draw : int array -> int -> eligible:bool -> unit

(** One word per dart: the matched bit, plus the propose bit on the
    proposal port (propose phase) or the accept bit on the accept port
    (respond phase). *)
val send :
  sw:int -> g:Ld_graph.Csr.t -> st:int array -> out:int array -> node:int -> unit

(** One receive step of the node at base [b]; the message on port [p]
    is [out.(mirror.(row.(node) + p))]. Returns [true] after a respond
    round, when the caller must {!draw} the next proposal. *)
val step :
  g:Ld_graph.Csr.t -> mirror:int array -> out:int array -> int array -> int ->
  node:int -> bool

(** Matched, or out of live ports between iterations. *)
val halted : sw:int -> st:int array -> node:int -> bool

(** The mate array of a final state array with slice width [sw].
    @raise Failure, naming [who], if it is not symmetric. *)
val mates : who:string -> sw:int -> Ld_graph.Csr.t -> int array -> int array

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
