(** The Section 4 adversary: an executable unfold-and-mix lower bound.

    Given any deterministic, lift-invariant EC algorithm [A] for the
    maximal fractional matching problem, the engine constructs the
    inductive sequence of loopy EC-graph pairs [(G_i, H_i)],
    [i = 0 … Δ-2], of the paper:

    - {b Base case} (Fig. 5): [G_0] is a single node with [Δ]
      differently-coloured loops; [H_0] removes a loop that [A] weights
      positively, which forces [A] to change some other loop's weight.
    - {b Unfold & mix} (Fig. 6): from [(G, H)] with differing colour-[c]
      loops at [g, h], build the 2-lift [GG] (or [HH]) and the mixture
      [GH]; the crossing edge's weight in [GH] must differ from the
      weight of [e] in [GG] or of [f] in [HH].
    - {b Propagation} (Fig. 7): the disagreement walks through the
      common, fully saturated side until it reaches a loop [e*] with
      differing weights — the distinguished pair of the next level.

    Every emitted level is {e machine-checked}: the radius-[i] views of
    the distinguished nodes are verified isomorphic by exact colour
    refinement while the outputs on the named loop differ, so each level
    [i] is a standalone certificate that [A]'s run-time exceeds [i]
    (in the paper's [τ_t] locality sense; an [r]-communication-round
    machine is a [t = r+1] algorithm in that sense).

    If [A] is not actually correct on the constructed loopy graphs —
    e.g. because it is a truncated, genuinely fast algorithm — the
    invariants of the construction must break, and the engine returns a
    concrete {e failure witness}: a loopy EC multigraph on which [A]'s
    output is infeasible or non-maximal (together with a simple 2-lift
    on which the violation persists, via Lemma 2). This is the other
    half of the dichotomy: fast implies wrong, correct implies slow. *)

module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q

type algorithm = Ld_matching.Packing.algorithm = {
  name : string;
  run : Ec.t -> Fm.t;
}

(** A value built on first use and kept. Forcing is domain-safe: any
    number of domains may force one value at once, and all of them get
    the same (physically equal) result. *)
type 'a deferred

val force : 'a deferred -> 'a

(** One choice of the adversary. The base case ({!Base}, level 0) builds
    [G_0] with [delta] loops, removes loop [removed] to get [H_0], and
    names the surviving loop [changed] whose weight moved. Every later
    level ({!Unfold}) unfolds the [side] whose weight differs from the
    crossing edge's, and the propagation walk ends at loop [loop_target]
    of node [g_star] there. Every graph of the construction is a
    function of these choices. *)
type step =
  | Base of { delta : int; removed : int; changed : int }
  | Unfold of { side : [ `G | `H ]; g_star : int; loop_target : int }

type certificate = {
  level : int;  (** the [i] of [(G_i, H_i)] *)
  trail : step array;  (** the choices of levels [0 … level] *)
  g_graph : Ec.t deferred;
  h_graph : Ec.t deferred;
      (** built on first use: a cached certificate replays them from its
          trail, counted by [core.lb.replays] *)
  g_node : int;
  h_node : int;
  colour : int;  (** colour [c_i] of the distinguished loops *)
  g_loop : int;  (** loop id in [g_graph] *)
  h_loop : int;  (** loop id in [h_graph] *)
  g_weight : Q.t;
  h_weight : Q.t;  (** differing outputs: [g_weight <> h_weight] *)
  views_checked : bool;
      (** radius-[level] view isomorphism verified by refinement *)
}

type failure = {
  fail_level : int;
  fail_graph : Ec.t;  (** loopy multigraph where [A]'s output fails *)
  fail_output : Fm.t;
  fail_violations : Fm.violation list;
  fail_lift : Ld_cover.Lift.covering;
      (** a loop-free 2-lift of [fail_graph]; [A]'s (pulled-back) output
          fails on this {e simple} graph too *)
  fail_note : string;
}

type outcome =
  | Certified of certificate list
      (** certificates for levels [0 … Δ-2]: run-time [> Δ-2] *)
  | Refuted of certificate list * failure
      (** [A] is not a correct maximal-FM algorithm; levels certified
          before the break are included *)

(** [run ~delta a] executes the adversary against [a] for maximum
    degree [delta >= 2].

    It is [cache_outcome (build_cache ?check_views ~delta a)]: the
    certificates carry the adversary's trail, and their graphs are
    replayed from it on first {!force}.

    The three probes of every level (GG, HH, GH) are independent runs of
    [a] and are fanned out over the {!Ld_pool.Pool} domains; recording
    and feasibility checks happen in the canonical sequential order, so
    outcomes are bit-for-bit those of a sequential run. Every level also
    compares [a]'s output on each 2-lift with the pulled-back output on
    the graph below; a mismatch means [a] violates the EC model's
    condition (2) and raises [Failure].

    The P1 checks are incremental across adjacent levels: each level's
    graph extends the previous level's by a 2-lift, and covering maps
    preserve universal-cover views exactly at every radius, so the check
    refines the composed covering anchor (the deepest non-lift ancestor)
    against the mixture instead of the full unfolded graph — same
    verdict on a smaller union ([core.lb.incremental_seeded] counts
    these).

    @param check_views verify P1 view-isomorphism by colour refinement
    at every level (default [true]).
    @raise Invalid_argument if [delta < 2]. *)
val run : ?check_views:bool -> delta:int -> algorithm -> outcome

(** Highest certified level of an outcome ([-1] if none). *)
val max_level : outcome -> int

(** {2 Memoised frontier scans}

    [run] rebuilds the whole [(G_i, H_i)] construction for every
    algorithm it is pointed at, which makes the benchmark's truncation
    scans ([r = 0, 1, …]) pay for [Θ(Δ)] constructions per scan. A
    {!cache} stores one construction succinctly — the adversary's
    trail, one feasibility threshold per probe, and per level the two
    distinguished weights and the views flag — so the scans replay it
    instead. Its graphs are rebuilt from the trail only when a consumer
    forces one. *)
type cache

(** [build_cache ~delta a] runs the full adversary against [a] once and
    keeps its trail and outcome plus, per probe, the largest colour
    carrying positive weight (the feasibility threshold
    {!truncated_verdict} compares against). Each level's probe graphs
    are dropped once they pass; the cache's certificates and probes
    replay theirs from the trail on demand. [check_views] is as for
    {!run}, and is also used by any fallback {!run} a later
    {!cached_run} needs.
    @raise Invalid_argument if [delta < 2]. *)
val build_cache : ?check_views:bool -> delta:int -> algorithm -> cache

(** The base algorithm's outcome, as {!build_cache} recorded it. *)
val cache_outcome : cache -> outcome

(** [cached_run cache b] computes the outcome [run] would produce for
    [b], reusing the cached construction: each probe graph is replayed,
    re-run under [b] and checked for feasibility, and the base
    algorithm is re-run on it for comparison.

    - If [b] fails feasibility at some probe, that is exactly where
      [run] would have refuted it: the result is [Refuted] with the
      cached certificates below the failing level (physically shared
      with the cache) and a fresh failure witness.
    - If [b] is feasible {e and equal to the base output} on every
      probe, it walks the identical construction: the cached outcome is
      returned as-is (physically shared).
    - If [b] is feasible but diverges from the base output on some
      probe, the cache does not apply and a full [run] is performed (as
      it is for a reassembled cache whose base algorithm is unknown).

    For the benchmark's truncated algorithms the divergent case never
    arises: by Lemma 2 a feasible output on these loopy graphs is fully
    saturated, and a saturated truncation of greedy/proposal equals the
    untruncated output. [test_core] pins the certificate bytes of
    greedy's outcome and of the certified prefix of a refuted
    truncation. *)
val cached_run : cache -> algorithm -> outcome

(** {2 Cache introspection and reassembly}

    The persistent certificate store ({!Cache_store}) serialises a
    cache as per-level records and rebuilds it on warm restart without
    re-running the adversary. These accessors expose exactly the data
    that determines a cache; {!assemble_cache} is the inverse. *)

(** One feasibility probe: the graph the base algorithm was run on at
    [probe_level] and the smallest truncation [prefix_round] whose
    colour-prefix of the base output is still feasible ([max_int] for a
    probe the base itself failed). The probe list of a cache is in
    canonical check order (level 0: G_0 then H_0; level i: GG, HH,
    GH). *)
type probe = {
  probe_level : int;
  prefix_round : int;
  probe_graph : Ec.t deferred;
}

val cache_delta : cache -> int
val cache_algo_name : cache -> string
val cache_check_views : cache -> bool
val cache_probes : cache -> probe list

(** [assemble_cache ~delta ~algo_name ~check_views ~probes ~outcome]
    rebuilds a cache from stored parts. The thresholds are read off the
    probes, and every certificate and probe is rewired onto one replay
    chain over the deepest certificate's trail, so forcing the whole
    cache replays each level once. A reassembled cache is
    indistinguishable from the {!build_cache} original: [cached_run]
    and {!truncated_verdict} return identical results. No algorithm is
    run and no graph is built.
    @raise Invalid_argument if the certificates are not levels
    [0, 1, …] whose trails are prefixes of one valid trail for
    [delta], or a level has more probes than the construction has. *)
val assemble_cache :
  delta:int -> algo_name:string -> check_views:bool -> probes:probe list ->
  outcome:outcome -> cache

(** [level_of_trail trail ~g_weight ~h_weight ~views_checked
    ~prefix_rounds] is the certificate and probes of level
    [Array.length trail - 1] of the construction [trail] describes, the
    persistent store's decoder. The certificate's scalars are read off
    the trail without building a graph; its graphs and the probes'
    replay the trail on their own when forced.
    @raise Invalid_argument if the trail is not one the adversary could
    take — a first step that is not the only {!Base} step, a Δ outside
    [[2, 32]], more than Δ-1 levels, a removed or changed loop outside
    [G_0], a [g_star] outside its level's graph, a [loop_target]
    outside copy A of it (where the propagation walk ends) or not at
    [g_star] — or if
    [prefix_rounds] does not hold one threshold per probe of the
    level. *)
val level_of_trail :
  step array -> g_weight:Q.t -> h_weight:Q.t -> views_checked:bool ->
  prefix_rounds:int list -> certificate * probe list

(** [truncated_verdict cache ~rounds] is the constructor of
    [cached_run cache (Packing.truncated `Greedy rounds)] alone
    ([`Certified] or [`Refuted]), computed {e analytically} from the
    thresholds: no graph is replayed and no algorithm is run.

    Greedy-by-colour reads exactly the colour-[c] dart in phase [c], so
    its [rounds]-truncation outputs precisely the colour-[≤ rounds]
    prefix of the base output, and on the adversary's loopy probe graphs
    that prefix is feasible iff every positive base colour is [≤ rounds]
    (feasible ⟺ fully saturated, Lemma 2) — in which case it {e equals}
    the base output and the verdict is the cached outcome's. Otherwise
    some probe's threshold exceeds [rounds], which is where [cached_run]
    would refute. A frontier scan consumes only the verdict; this is one
    threshold comparison per probe, with the [memo_replay_hits] /
    [memo_replay_refuted] counter traffic of [cached_run].
    @raise Invalid_argument if the cache's base algorithm is not
    greedy-by-colour or [rounds < 0]. *)
val truncated_verdict : cache -> rounds:int -> [ `Certified | `Refuted ]

val pp_certificate : Format.formatter -> certificate -> unit
val pp_failure : Format.formatter -> failure -> unit
