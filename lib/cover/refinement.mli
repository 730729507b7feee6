(** Colour refinement on edge-coloured multigraphs — the exact test for
    universal-cover view isomorphism.

    Two rooted (multi)graphs have isomorphic radius-[t] universal-cover
    neighbourhoods [τ_t(UG, u) ≅ τ_t(UH, v)] (paper §3.1) if and only if
    [t] rounds of colour refinement assign [u] and [v] the same label,
    where refinement starts from a constant labelling and each round
    re-labels a node by the sorted list of (dart key, previous label of
    the dart's other end); a loop dart reflects the node's own label.

    This replaces the paper's infinite universal covers with an exact
    finite computation: no views are ever materialised. *)

(** Refinement labels after each round: [labels.(r).(v)] is the label of
    node [v] after [r] rounds, [r = 0 .. rounds]. Labels are small ints,
    consistent {e within one call} across all nodes (so cross-graph
    comparisons must go through a disjoint union — see
    {!equivalent_radius}). *)
type history = int array array

(** Per-domain tallies of refinement work, for benchmark rows that need
    the cost of {e their own} task rather than the process-wide atomic
    counters (which mix all pool domains together). Totals accumulate
    per domain; difference two {!Stats.current} snapshots around a task
    to meter it. *)
module Stats : sig
  type t = { rounds : int; descriptors : int; blocks_split : int }

  (** Running totals of the calling domain. *)
  val current : unit -> t

  (** [since t0] is the work done on this domain since the [t0]
      snapshot. *)
  val since : t -> t
end

(** [refine_ec g ~rounds] runs refinement on an EC multigraph.

    The default implementation is round-synchronous Paige–Tarjan
    partition refinement on the graph's dart table
    ({!Ld_models.Darts}): a round
    re-examines only the blocks whose members (or their neighbours)
    changed block in the previous round, a split keeps the parent id on
    the largest sub-block so only the smaller parts propagate dirtiness
    (each node changes id O(log n) times), and per-node descriptors are
    read off in the table segment's fixed key-ascending order — keys are
    distinct within a node, so that order is already canonical and
    nothing is ever sorted ([cover.refine.descriptors_sorted] stays 0).
    A dense relabelling pass per round reproduces the reference label
    discipline exactly. [~reference:true] selects the original
    list-based, sort-per-node implementation; both produce {e identical}
    label arrays (a tested invariant), the reference path just does so
    slowly. *)
val refine_ec : ?reference:bool -> Ld_models.Ec.t -> rounds:int -> history

(** [refine_po g ~rounds] runs refinement on a PO multigraph; dart keys
    carry the direction, so orientation is respected. [?reference] as in
    {!refine_ec}.

    Both refine packed [key * (n + 1) + label] descriptors, which the
    key bound of {!Ld_models.Darts} keeps inside an int.
    @raise Invalid_argument if [n + 1 > 2^31]. *)
val refine_po : ?reference:bool -> Ld_models.Po.t -> rounds:int -> history

(** [equivalent_radius g u h v ~radius] decides
    [τ_radius(UG, u) ≅ τ_radius(UH, v)] for EC graphs. *)
val equivalent_radius :
  Ld_models.Ec.t -> int -> Ld_models.Ec.t -> int -> radius:int -> bool

(** [first_distinguishing_radius g u h v ~max_radius] is the smallest
    [r <= max_radius] with inequivalent radius-[r] views, if any. *)
val first_distinguishing_radius :
  Ld_models.Ec.t -> int -> Ld_models.Ec.t -> int -> max_radius:int -> int option

(** [stable_partition_ec g] refines to a fixpoint and returns the class
    of every node (classes numbered densely from 0). Nodes in the same
    class have isomorphic universal-cover views of every radius. *)
val stable_partition_ec : Ld_models.Ec.t -> int array

val stable_partition_po : Ld_models.Po.t -> int array
