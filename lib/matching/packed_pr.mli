(** Panconesi–Rizzi maximal matching in [O(Δ + log* n)] rounds (paper
    §1.1, [25]) — the deterministic upper bound whose optimality in the
    [Δ] term is the paper's open question — on the
    {!Ld_runtime.Packed.Port} executor, with node indices as
    identifiers.

    Structure:
    + {b Forest decomposition} (2 rounds): orient every edge toward its
      higher identifier; the [i]-th outgoing edge of a node (in port
      order) joins forest [i]. Every node has at most one parent per
      forest, so each forest is a rooted pseudoforest; children tell
      parents which forest their shared edge landed in.
    + {b Cole–Vishkin} ([log* n + O(1)] rounds): reduce colours to
      [{0..5}] in all forests simultaneously, starting from identifiers.
    + {b Shift-down + eliminate} (6 rounds): standard 6 → 3 colour
      reduction per forest.
    + {b Matching phases} ([6 Δ] rounds): for each forest and each
      colour, unmatched nodes of that colour propose along their parent
      edge; parents accept one proposal. Within a phase a parent never
      proposes in the same forest (its colour differs from its child's),
      so after phase [(f, c)] every forest-[f] edge whose child has
      colour [c] has a matched endpoint — maximality follows.

    Deterministic, so {!Ld_runtime.Packed.Port.reference_run} over
    {!machine} is an exact differential oracle: states, rounds and
    halting agree at any [LD_DOMAINS]. *)

(** One entry of the deterministic round schedule. *)
type round_kind =
  | R_learn_ids
  | R_learn_forests
  | R_cv
  | R_shift
  | R_eliminate of int
  | R_propose of int * int  (** forest, colour *)
  | R_respond of int * int

(** [schedule ~delta ~id_bits] — the full round schedule: forest
    decomposition, Cole–Vishkin to 6 colours, shift-down/eliminate to
    3, then the [6 Δ] propose/respond phases. Every node halts at
    round [Array.length (schedule ~delta ~id_bits)]. *)
val schedule : delta:int -> id_bits:int -> round_kind array

(** The machine for one schedule. Its state is field-major: word [k]
    of node [v] is at [k * n + v] of the executor's [n * state_words]
    array, with the round counter in field 0 and the matched port (or
    -1) in field 1. *)
val machine :
  sched:round_kind array -> delta:int -> Ld_runtime.Packed.Port.machine

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
  cv_iterations : int;
}

(** [run g] — [Δ] and the identifier bit-length are read off the input
    (they are the global knowledge the algorithm is allowed).
    @raise Failure if the matching comes out asymmetric (a protocol
    bug, checked on extraction). *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** The mate array is a symmetric matching with no edge joining two
    unmatched nodes. *)
val is_maximal : Ld_graph.Csr.t -> result -> bool
