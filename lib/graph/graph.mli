(** Simple undirected graphs.

    Nodes are integers [0 .. n-1]; the structure is immutable after
    construction. Parallel edges and self-loops are rejected — multigraphs
    with loops (the EC/PO objects of the paper) live in [Ld_models].

    A graph is stored as compressed sparse rows: the darts of node [v]
    are the indices [row.(v) .. row.(v+1) - 1], and [endpoint.(d)] is
    dart [d]'s far endpoint, strictly ascending within each segment.
    Every edge has one dart at each end. {!Csr.t} adds a colour per
    dart over the same arrays. Treat all arrays as read-only. *)

type t = {
  n : int;
  row : int array;  (** length [n + 1] *)
  endpoint : int array;  (** length [row.(n) = 2 * m] *)
  m : int;
}

(** [create n edges] builds a graph on [n] nodes.
    @raise Invalid_argument on out-of-range endpoints, self-loops or
    duplicate edges. *)
val create : int -> (int * int) list -> t

(** [of_packed n keys] is the graph on [n] nodes whose edges are the
    distinct keys [u * n + v] ([0 <= u < v < n]) of [keys], which it
    sorts in place. Repeated keys make one edge; keys are not
    otherwise checked. *)
val of_packed : int -> int array -> t

(** Number of nodes. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** All edges, each as [(u, v)] with [u < v]: ascending [u], then
    {e descending} [v] within each [u]. The greedy colourings
    ([Csr.greedy], [Edge_colouring.greedy]) colour edges in this
    order, so every greedy colour depends on it. *)
val edges : t -> (int * int) list

(** Sorted neighbour list. *)
val neighbours : t -> int -> int list

(** O(1). *)
val degree : t -> int -> int

(** Maximum degree Δ; 0 for the empty graph. *)
val max_degree : t -> int

(** [dart g u v] is the dart of [u] whose far endpoint is [v], or [-1]
    if there is no edge [(u, v)]. O(log Δ). *)
val dart : t -> int -> int -> int

val has_edge : t -> int -> int -> bool

(** [fold_edges f init g] folds over edges [(u, v)], [u < v], in
    {!edges} order. *)
val fold_edges : ((int * int) -> 'a -> 'a) -> 'a -> t -> 'a

(** [mirror g] maps every dart to its reverse dart: for dart [d] of
    node [v], [(mirror g).(d)] is the dart of [endpoint.(d)] whose far
    endpoint is [v]. An involution, built in one linear pass with no
    scratch array.
    @raise Invalid_argument if some dart has no reverse or a segment is
    not ascending. *)
val mirror : t -> int array

(** [bfs_dist g v] is the array of hop distances from [v];
    unreachable nodes get [max_int]. *)
val bfs_dist : t -> int -> int array

(** [components g] is [(comp, k)]: component index per node and the
    number of components. *)
val components : t -> int array * int

val is_connected : t -> bool

(** Disjoint union; nodes of the second graph are shifted by [n g1]. *)
val disjoint_union : t -> t -> t

(** [induced g nodes] is the subgraph induced by [nodes] together with
    the mapping from new indices to original nodes. *)
val induced : t -> int list -> t * int array

(** [relabel g perm] renames node [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. *)
val relabel : t -> int array -> t

(** [is_isomorphic_small g1 g2] decides isomorphism by backtracking;
    intended for graphs with at most ~10 nodes (tests only). *)
val is_isomorphic_small : t -> t -> bool

val pp : Format.formatter -> t -> unit
