(** Fractional matchings on EC multigraphs (paper §1.2).

    A fractional matching [y] assigns a weight in [[0,1]] to every edge
    and loop; the node weight [y[v]] sums the weights of all darts at
    [v], a loop counting {e once} (the EC semi-edge convention: in a
    simple lift the loop is a single edge incident to each fiber copy).

    [y] is a {e fractional matching} if [y[v] <= 1] everywhere, and
    {e maximal} if every edge has a saturated endpoint — for a loop,
    its node must be saturated, since in any lift both endpoints of the
    lifted edge are fiber copies with the same node weight.

    All weights are exact rationals, so the checkers below are decision
    procedures, not approximations. *)

module Q = Ld_arith.Q

type t

(** [create g ~edge_w ~loop_w] — weights indexed by edge id and loop id.
    @raise Invalid_argument on length mismatch. Weights are {e not}
    range-checked here; see {!validity_violations}. *)
val create :
  Ld_models.Ec.t -> edge_w:Q.t array -> loop_w:Q.t array -> t

(** [of_colour_weights g weight_at] reads every item's weight at a node:
    [weight_at v c] is the weight on [v]'s colour-[c] edge or loop. An
    edge's weight is read at both ends, which must agree (asserted). *)
val of_colour_weights : Ld_models.Ec.t -> (int -> int -> Q.t) -> t

(** The all-zero fractional matching. *)
val zero : Ld_models.Ec.t -> t

val graph : t -> Ld_models.Ec.t
val edge_weight : t -> int -> Q.t
val loop_weight : t -> int -> Q.t

(** All edge weights, indexed by edge id, and all loop weights, indexed
    by loop id: the arrays are shared with the matching, so treat them
    as read-only. *)
val edge_weights : t -> Q.t array

val loop_weights : t -> Q.t array

(** Weight of the edge or loop behind a dart. *)
val dart_weight : t -> Ld_models.Ec.dart -> Q.t

(** [node_weight y v] is [y[v]]. *)
val node_weight : t -> int -> Q.t

(** All node weights, computed in one pass over the edge darts and the
    loop runs. *)
val node_weights : t -> Q.t array

val is_saturated : t -> int -> bool

(** Sum of all edge and loop weights. *)
val total : t -> Q.t

type violation =
  | Weight_out_of_range of [ `Edge of int | `Loop of int ]
      (** some weight is outside [[0,1]] *)
  | Node_overloaded of int  (** [y[v] > 1] *)
  | Unsaturated_edge of int  (** both endpoints unsaturated *)
  | Unsaturated_loop of int  (** the loop's node is unsaturated *)

(** Violations of the fractional-matching conditions (feasibility). *)
val validity_violations : t -> violation list

(** Violations of maximality, assuming feasibility. *)
val maximality_violations : t -> violation list

(** [feasibility_violations y] is exactly
    [validity_violations y @ maximality_violations y] — same violations
    in the same order, same counter traffic — computed with a single
    shared node-weight pass. The adversary's per-probe check needs both
    families, and the exact-rational [node_weights] sum dominates the
    checker cost, so the fused form is the hot-path entry point. *)
val feasibility_violations : t -> violation list

val is_fm : t -> bool

(** Feasible and maximal. *)
val is_maximal_fm : t -> bool

(** All nodes saturated (the Lemma 2 conclusion on loopy graphs). *)
val is_fully_saturated : t -> bool

val equal : t -> t -> bool

(** [pull_back cov y] transports a fractional matching on the base of a
    covering to its total graph: every total edge gets the weight of the
    base edge or loop it projects to. This is how the output of a
    lift-invariant algorithm on the base determines its output on the
    total graph (condition (2) of the paper).
    @raise Invalid_argument if [graph y] is not the covering's base. *)
val pull_back : Ld_cover.Lift.covering -> t -> t

(** [is_pull_back cov ~base ~total] is
    [equal total (pull_back cov base)], decided without building the
    pulled-back matching: each total node's dart segment is compared,
    position by position, with the segment of its base node
    [cov.map.(v)]. It allocates nothing. This is the adversary's check
    of condition (2).
    @raise Invalid_argument if [graph base] is not the covering's base,
    or if some total node's segment differs from its base node's in
    length or colours (the map is not a covering). *)
val is_pull_back : Ld_cover.Lift.covering -> base:t -> total:t -> bool

val pp : Format.formatter -> t -> unit
