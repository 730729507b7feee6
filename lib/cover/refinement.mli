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

(** [refine_ec g ~rounds] runs refinement on an EC multigraph.

    The default implementation is round-synchronous Paige–Tarjan
    partition refinement on the graph's dart table
    ({!Ld_models.Darts}): a round re-examines only the blocks whose
    members (or their neighbours) changed block in the previous round,
    and a split keeps the parent id on the largest sub-block so only the
    smaller parts propagate dirtiness (each node changes id O(log n)
    times). Round 1 groups nodes by key sequence, so from round 2 on all
    members of a block share one; a loop dart or a dart into the block
    itself then reads the same (key, block) for every member, and
    members are grouped by their darts that {e leave} the block alone.
    Grouping hashes those darts into one reused open-addressing table
    and compares exactly against each group's first member; nothing is
    allocated per node and nothing is sorted. A dense relabelling pass
    per round numbers blocks by first occurrence in node order, so
    [labels.(r)] numbers the distinct radius-[r] {!View} trees in order
    of first occurrence (a tested invariant). *)
val refine_ec : Ld_models.Ec.t -> rounds:int -> history

(** [refine_po g ~rounds] runs refinement on a PO multigraph; dart keys
    carry the direction, so orientation is respected. *)
val refine_po : Ld_models.Po.t -> rounds:int -> history

(** [equivalent_radius g u h v ~radius] decides
    [τ_radius(UG, u) ≅ τ_radius(UH, v)] for EC graphs ([true] for
    [radius <= 0]). It refines the disjoint union of [g] and [h]
    without building the union graph: each query makes one
    concatenated copy of the two edge dart tables, and reads the loops
    in place.
    @raise Invalid_argument unless [0 <= u < Ec.n g] and
    [0 <= v < Ec.n h]. *)
val equivalent_radius :
  Ld_models.Ec.t -> int -> Ld_models.Ec.t -> int -> radius:int -> bool

(** [first_distinguishing_radius g u h v ~max_radius] is the smallest
    [r <= max_radius] with inequivalent radius-[r] views, if any.
    @raise Invalid_argument unless [0 <= u < Ec.n g] and
    [0 <= v < Ec.n h]. *)
val first_distinguishing_radius :
  Ld_models.Ec.t -> int -> Ld_models.Ec.t -> int -> max_radius:int -> int option

(** [stable_partition_ec g] refines to a fixpoint and returns the class
    of every node (classes numbered densely from 0). Nodes in the same
    class have isomorphic universal-cover views of every radius. *)
val stable_partition_ec : Ld_models.Ec.t -> int array

val stable_partition_po : Ld_models.Po.t -> int array
