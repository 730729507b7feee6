(** Distributed maximal edge packing (maximal fractional matching) in the
    EC model — the [O(Δ)] upper bound that Theorem 1 proves optimal
    (Åstrand–Suomela 2010 [3]; "greedy is optimal",
    Hirvonen–Suomela 2012 [13]).

    Two algorithms:

    {b Greedy by colour.} In phase [c = 1, 2, …, k] every edge of colour
    [c] takes the minimum residual slack of its endpoints. After phase
    [c] one endpoint of every colour-[c] edge is saturated (or was
    saturated before), so after [k = O(Δ)] single-round phases the
    packing is maximal. This is the canonical adversary target. Every
    weight it assigns is 0 or 1, so it is the greedy maximal matching
    ({!Mm_ec}) read as a packing; both share one machine.

    {b Simultaneous proposal.} Every node splits its slack evenly among
    its live darts (darts whose endpoints are both unsaturated); each
    live edge grows by the minimum of its two offers. The node with the
    globally minimal offer saturates, so at most [n] iterations are
    needed; empirically the round count tracks [O(Δ)] on bounded-degree
    families — the benchmark compares both.

    Both run on arbitrary EC multigraphs through the loop-reflecting
    runner, hence both are lift-invariant by construction, as the EC
    model demands. *)

(** [greedy_by_colour ?truncate g] runs [min truncate k] phases, where
    [k] is the number of colours of [g] (one communication round per
    phase). Without [truncate], the result is always a maximal FM.
    The communication-round count is exactly [min truncate k]. *)
val greedy_by_colour : ?truncate:int -> Ld_models.Ec.t -> Ld_fm.Fm.t

(** [greedy_colours ?truncate g] runs the same phases and returns
    [(matched, rounds)]: [matched.(v)] is the colour of the dart through
    which [v] saturated ([0] if it did not) and [rounds] is
    [min truncate k]. Slacks start at 1 and every weight is the minimum
    of two slacks, so every slack and weight is 0 or 1: the packing is
    an integral matching, the one {!Mm_ec.greedy} reports, and
    [matched] determines it. The machine carries only ints.
    @raise Invalid_argument on a negative [truncate]. *)
val greedy_colours : ?truncate:int -> Ld_models.Ec.t -> int array * int

(** Rounds the full greedy algorithm uses on [g] (= number of colours). *)
val greedy_rounds : Ld_models.Ec.t -> int

(** [proposal ?truncate g] iterates the offer dynamics until no live
    dart remains (or for [truncate] rounds); returns the packing and the
    number of rounds executed. Untruncated, the result is always a
    maximal FM after at most [n] rounds. *)
val proposal : ?truncate:int -> Ld_models.Ec.t -> Ld_fm.Fm.t * int

type proposal_state
type proposal_msg

(** The proposal dynamics as one machine over dart keys, run by
    {!proposal} on EC graphs and by {!Po_packing.proposal} on PO graphs:
    every node splits its slack evenly among its live keys, so an EC
    loop (one key) gets one share and a PO directed loop (two keys)
    gets two. *)
val proposal_machine : (proposal_state, proposal_msg) Ld_runtime.Anon.machine

(** [proposal_weight s k] is the weight the node in state [s] has put on
    its dart keyed [k] ([0] for a key it does not have). *)
val proposal_weight : proposal_state -> int -> Ld_arith.Q.t

(** [proposal_reference g] is [proposal g] on the dense executor
    ({!Ld_runtime.Anon_ec.reference_run}): the differential oracle for
    the active-set executor's inboxes on a machine that reads its darts
    by index and by colour. *)
val proposal_reference : Ld_models.Ec.t -> Ld_fm.Fm.t * int

(** A named black-box algorithm, as consumed by the lower-bound engine:
    [run] must be deterministic and lift-invariant. *)
type algorithm = { name : string; run : Ld_models.Ec.t -> Ld_fm.Fm.t }

val greedy_algorithm : algorithm

val proposal_algorithm : algorithm

(** [truncated base r] caps either algorithm at [r] communication
    rounds — a genuinely [r]-round algorithm, used to exhibit failure
    witnesses. *)
val truncated : [ `Greedy | `Proposal ] -> int -> algorithm
