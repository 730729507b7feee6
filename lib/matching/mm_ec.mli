(** Greedy maximal (integral) matching in the EC model (paper §2.1,
    [13] "greedy is optimal").

    Phase [c = 1 … k]: every colour-[c] edge whose endpoints are both
    unmatched joins the matching. A proper colouring makes the phases
    conflict-free, so the greedy runs in [k = O(Δ)] rounds — maximal
    matching is {e trivial} in EC while impossible for a deterministic
    local algorithm in ID/OI/PO (the asymmetry the paper highlights in
    §2.1). On a multigraph, a node matched through a loop is matched
    with its own fiber copy in any lift.

    This is the same machine as {!Packing.greedy_by_colour}, read as a
    matching: greedy's weights are all 0 or 1, and a node's saturation
    colour ({!Packing.greedy_colours}) is the colour it matched
    through. *)

type result = {
  matched_edges : int list;  (** edge ids in the matching *)
  matched_loops : int list;  (** loops whose node matched its fiber copy *)
  matched_colour : int option array;  (** per node: colour it matched through *)
  rounds : int;
}

(** [greedy ?truncate g] — one round per colour. Untruncated, the result
    is maximal: every edge and loop ends with a matched endpoint.
    @raise Invalid_argument on a negative [truncate]. *)
val greedy : ?truncate:int -> Ld_models.Ec.t -> result

(** [is_maximal g r] checks the matching property and maximality on the
    multigraph ([r]'s matched pairs are disjoint; every edge or loop has
    a matched endpoint). *)
val is_maximal : Ld_models.Ec.t -> result -> bool

(** [to_fm g r] reads the matching as a 0/1 fractional matching — a
    maximal matching {e is} a maximal FM, so the Section 4 adversary
    applies verbatim to this algorithm. Running it reproduces the
    companion result of Hirvonen–Suomela 2012 [13] ("greedy is
    optimal"): the greedy maximal matching needs Ω(Δ) rounds too. *)
val to_fm : Ld_models.Ec.t -> result -> Ld_fm.Fm.t

(** The greedy matching packaged for the lower-bound engine
    (optionally truncated to [r] rounds). *)
val as_packing_algorithm : ?truncate:int -> unit -> Packing.algorithm
