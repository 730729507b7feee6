(** Graph family generators.

    All randomised generators take an explicit [seed] so that every
    experiment in the benchmark harness is reproducible. *)

(** Path on [n] nodes ([n >= 1]): edges [i - (i+1)]. *)
val path : int -> Graph.t

(** Cycle on [n >= 3] nodes. *)
val cycle : int -> Graph.t

(** Star with [k] leaves: node 0 is the centre, degree [k]. *)
val star : int -> Graph.t

(** Complete graph on [n] nodes. *)
val complete : int -> Graph.t

(** Complete bipartite graph [K_{a,b}]; left side is [0..a-1]. *)
val complete_bipartite : int -> int -> Graph.t

(** [rows] x [cols] grid. *)
val grid : int -> int -> Graph.t

(** Hypercube of dimension [d] (so [2^d] nodes, [Δ = d]). *)
val hypercube : int -> Graph.t

(** Complete binary tree with [depth] levels of edges
    ([2^(depth+1) - 1] nodes). *)
val binary_tree : int -> Graph.t

(** Caterpillar: a spine path of [spine] nodes, each spine node with
    [legs] pendant leaves; Δ = legs + 2 in the interior. *)
val caterpillar : spine:int -> legs:int -> Graph.t

(** Uniform random labelled tree on [n] nodes (Prüfer sequence). *)
val random_tree : seed:int -> int -> Graph.t

(** Erdős–Rényi [G(n, p)]. *)
val random_gnp : seed:int -> int -> float -> Graph.t

(** Random [d]-regular simple graph on [n] nodes via the configuration
    model with retries; requires [n * d] even and [d < n]. If 5000
    pairings are all rejected, returns a circulant d-regular graph
    relabelled by a seeded permutation instead, so the call is total.
    @raise Invalid_argument if the parameters are infeasible. *)
val random_regular : seed:int -> int -> int -> Graph.t

(** Random graph with maximum degree at most [max_deg]: a random greedy
    subgraph of [G(n, p)] with edges violating the bound dropped. *)
val random_bounded_degree : seed:int -> int -> int -> Graph.t

(** The tree obtained by taking a star of degree [delta] and appending a
    pendant path of length [tail] to each leaf. A standard hard instance
    for matching-style algorithms. *)
val spider : delta:int -> tail:int -> Graph.t

(** [perm_regular ~seed n d] — union of d/2 random permutation cycle
    covers: a simple near-d-regular graph of max degree ≤ [d], built
    in O(n·d) with no rejection (fixed points and duplicate edges are
    skipped — a vanishing fraction). [d] must be even, [2 <= d < n].
    The scalable random family for the runtime bench. *)
val perm_regular : seed:int -> int -> int -> Graph.t

(** Deterministic (d, δ)-biregular tree in BFS layout, truncated at
    [n] nodes, with a proper edge colouring using at most
    [max d delta] colours and the {!Csr.t} [mirror] built in: each
    edge's two darts, colours and reverses are written together, with
    no scratch array beyond the returned ones. O(n); the cheap
    mega-scale instance family.
    @raise Invalid_argument if [d], [delta] or [n] is below 1, or if the
    tree is finite ([d = 1] or [delta = 1]: a star on
    [max d delta + 1] nodes) and smaller than [n]. *)
val stream_biregular_tree : d:int -> delta:int -> int -> Csr.t

(** A named list of representative families used by the benchmarks:
    [(name, fun ~seed ~n ~delta -> graph)]. Generators clamp their
    parameters to feasible values. *)
val bench_families : (string * (seed:int -> n:int -> delta:int -> Graph.t)) list
