(** The canonical homogeneous linear order on the infinite [2d]-regular
    [d]-edge-coloured PO-tree [T] (paper Lemma 4, Appendix A.2).

    Nodes of [T] are represented by their {e address}: the reduced
    sequence of steps from a fixed origin, each step following either an
    outgoing arc ([fwd = true]) or an incoming arc ([fwd = false]) of a
    given colour. Reduced means non-backtracking — a step is never
    followed by its inverse, mirroring simple paths in the tree.

    The order compares two nodes through the combinatorial bracket

    [⟦x⇝y⟧ = Σ_{e ∈ E(x⇝y)} [x ≺_e y] + Σ_{v ∈ V_in(x⇝y)} [x ≺_v y]]

    with [x ≺ y ⟺ ⟦x⇝y⟧ > 0], where [≺_e] orders an arc's endpoints
    tail-first and [≺_v] orders the darts at a node outgoing-by-colour
    first, then incoming-by-colour (the paper's PO2 → PO1 convention,
    Fig. 2). [⟦x⇝y⟧] is always odd for [x ≠ y] (totality), antisymmetric,
    and transitive — and it depends only on the reduced step word from
    [x] to [y], which makes the order {e homogeneous}: every translation
    of [T] preserves it, so ordered neighbourhoods look the same from
    every node. *)

type step = { fwd : bool; colour : int }

(** A reduced address (steps from the origin). The empty list is the
    origin itself. *)
type address = step list

val inverse : step -> step

(** Structural equality of addresses. *)
val equal : address -> address -> bool

(** Cancel adjacent inverse pairs until reduced. *)
val normalize : step list -> step list

(** [concat a b] is the reduced concatenation — node [b] as seen after
    translating the origin to [a]. *)
val concat : address -> address -> address

(** The bracket [⟦x⇝y⟧]; antisymmetric, odd whenever [x <> y].
    Addresses must be reduced (as produced by {!normalize}/{!concat}). *)
val bracket : address -> address -> int

(** Total order: negative iff [x ≺ y]. *)
val compare : address -> address -> int

(** [sort_nodes addrs] sorts addresses by the canonical order. *)
val sort_nodes : address list -> address list

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> address -> unit
