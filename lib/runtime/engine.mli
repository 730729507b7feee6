(** The synchronous round core every executor runs on.

    An engine owns the active worklist (non-halted nodes, ascending),
    one frozen flag per node, the two-phase round over {!Chunk.ranges}
    with [Ld_pool.Pool] fan-out at or above [par_threshold] active
    nodes, in-place compaction, the per-round latency histogram and the
    [rounds]/[active_nodes] counters. Front-ends keep their own state
    and message layout and supply per-range closures [f chunk lo hi]
    over worklist positions [lo, hi); [chunk] is the range's index
    (below [domains e]), so a front-end can keep a buffer per range. *)

(** A counter family [prefix.rounds], [prefix.active_nodes] and the
    per-round latency histogram [prefix.round]. *)
type family

val family : string -> family

(** Active-node count at or above which a phase is split across
    domains (when the effective domain count exceeds 1). *)
val default_par_threshold : int

type t

(** [create fam ~par_threshold ~domains ~limit row] for the graph whose
    CSR dart offsets are [row] (so [n = Array.length row - 1]);
    [domains] defaults to [Ld_pool.Pool.default_domains ()].
    @raise Invalid_argument if [limit < 0] — the one round-limit check
    of every executor. *)
val create :
  family -> par_threshold:int -> domains:int option -> limit:int ->
  int array -> t

val domains : t -> int

(** The worklist; positions [lo, hi) handed to a phase closure index
    into it. *)
val active : t -> int array

(** One byte per node, nonzero once the node has halted. *)
val frozen : t -> Bytes.t

(** Mark a node halted; a refresh closure calls it for every node whose
    new state is halted. *)
val freeze : t -> int -> unit

(** [split e len f] runs [f chunk lo hi] over [0, len): as one call
    [f 0 0 len] below the threshold, else as one pool task per range. *)
val split : t -> int -> (int -> int -> int -> unit) -> unit

type totals = {
  rounds : int;
  active_sum : int;  (** worklist size summed over rounds *)
  degree_sum : int;  (** active nodes' dart counts summed over rounds *)
  all_halted : bool;  (** every node halted within the limit *)
}

(** [run e ~halted ~recv ~refresh] freezes the nodes that are [halted]
    initially, then runs rounds until the worklist is empty or the
    limit is reached. A round runs [recv] over the worklist, then
    [refresh] (which must {!freeze} freshly halted nodes), then
    compacts. [recv] may read only state the previous [refresh]
    published; each phase may write only the slots of its own range's
    nodes. Flushes the family's counters. *)
val run :
  t ->
  halted:(int -> bool) ->
  recv:(int -> int -> int -> unit) ->
  refresh:(int -> int -> int -> unit) ->
  totals
