(** Randomised maximal matching in [O(log n)] rounds (paper §1.1;
    Israeli–Itai 1986 [14]).

    The classic proposal scheme: in each iteration every unmatched node
    flips a coin to become a proposer or a responder; proposers send a
    proposal along one uniformly random live edge; responders accept
    the lowest-port proposal, forming a matched pair. Matched nodes
    announce themselves, and a node halts once it is matched or has no
    live neighbours left — at which point every one of its edges has a
    matched endpoint, so the union of pairs is a maximal matching.

    A constant fraction of live edges disappears per iteration in
    expectation, so the algorithm halts in [O(log n)] rounds with high
    probability — the randomised baseline the paper contrasts with the
    deterministic [Δ]-dependent world.

    It runs {!Packed_ii}'s propose/respond core in the ID model: ports
    follow [Graph.neighbours], and node [v] draws its coins from a
    [Random.State] seeded by [(seed, id v)], so the matching depends on
    the identifiers, not on node indices. Degrees must be at most
    {!max_degree} (the core keeps the live ports in one word). *)

type result = {
  mate : int option array;  (** per node: matched partner (node index) *)
  rounds : int;
}

(** The largest degree {!run} accepts: 62. *)
val max_degree : int

(** The packed machine {!run} executes over the CSR of [Id.graph idg]
    (segments in [Graph.neighbours] order; colours are not read). Each
    run's [init] reseeds every node's generator. *)
val machine : seed:int -> Ld_models.Labelled.Id.t -> Ld_runtime.Packed.Port.machine

(** [run ~seed ~max_rounds idg].
    @raise Failure if some node has not halted after [max_rounds]
    (probability vanishing in [max_rounds]).
    @raise Invalid_argument if some degree exceeds {!max_degree}. *)
val run :
  seed:int -> max_rounds:int -> Ld_models.Labelled.Id.t -> result

(** The matched pairs are disjoint and every edge is covered. *)
val is_maximal : Ld_graph.Graph.t -> result -> bool
