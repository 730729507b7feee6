(** Explicit universal-cover view trees for EC and PO multigraphs.

    [of_ec a g v ~radius:t] is the radius-[t] neighbourhood [τ_t(UG, v)] of
    the universal cover (paper §3.4), materialised as a rooted tree whose
    branches are indexed by dart key ({!Ld_models.Darts}): the colour in
    EC, the direction-tagged colour in PO. Keys are distinct at every
    node, so structural equality of these trees {e is} isomorphism of
    the neighbourhoods. [of_po] unfolds a PO graph the same way; its
    trees are the [τ] of the PO ⇐ OI simulation (paper §5.3, Fig. 9).

    A loop dart unfolds into a fresh copy of its own node, exactly as in
    a simple lift (a directed loop unfolds through both its darts).
    Views are hash-consed in an {!arena} that the caller creates and
    owns: isomorphic subtrees built in one arena are one arena node, the
    unfolding is memoised over (node, arrival key, depth) so the
    [Δ^t]-node tree costs only [O(n·Δ·t)] cons operations, and {!equal}
    is a single pointer comparison ([cover.view.cons_hits] meters the
    sharing). The scalable equivalence test is {!Refinement}; views are
    its test oracle and the trees of the PO ⇐ OI simulation. *)

type t = private { tag : int; branches : (int * t) list }
(** Branches sorted by key, keys distinct. A leaf has [branches = []].
    [tag] is the index in the view's arena: within one arena, equal
    tags iff structurally equal trees. Tags depend on insertion order
    and repeat across arenas, so they identify but must never {e order}
    views. *)

(** A hash-cons arena. It has one owner on one domain: it takes no
    lock, so it must not be shared between domains. It is freed, with
    its views, once the caller drops them. *)
type arena

val arena : unit -> arena

(** [of_ec a g v ~radius] is [τ_radius(UG, v)], consed in [a].
    @raise Invalid_argument if [radius < 0] or [v] is not a node of
    [g]. *)
val of_ec : arena -> Ld_models.Ec.t -> int -> radius:int -> t

(** As {!of_ec} for a PO graph. *)
val of_po : arena -> Ld_models.Po.t -> int -> radius:int -> t

(** Pointer equality, O(1). Meaningful only for two views of one arena:
    there it holds iff the trees are isomorphic. Views of two arenas
    are never equal, isomorphic or not. *)
val equal : t -> t -> bool

(** Number of nodes in the tree (root included). *)
val size : t -> int

val depth : t -> int

(** [branch v k] is the subtree reached along key [k], if present. *)
val branch : t -> int -> t option

(** Materialise an EC view tree as an EC graph (no loops); the root is
    node 0. Running any anonymous algorithm for [depth t] rounds on the
    materialised radius-[t+1] tree reproduces the root's behaviour on
    the original graph. *)
val to_ec : t -> Ld_models.Ec.t

(** All nodes of the tree as root-relative key words, in DFS order
    (branches by ascending key); the root is [[]]. In a PO view, a step
    with {!Ld_models.Darts.is_out} follows an outgoing arc. *)
val paths : t -> int list list

(** Materialise a PO view tree as a PO graph (no loops). Returns the
    graph and the node index of each path in {!paths} order; the root
    is node 0. *)
val to_po : t -> Ld_models.Po.t * (int list * int) list

(** Prints each branch as [colour:subtree], with [-colour] for a PO
    in-dart. *)
val pp : Format.formatter -> t -> unit
