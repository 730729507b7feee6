(** Edge-coloured multigraphs with loops — the EC model (paper §3.3, §3.5).

    An EC-graph carries a proper edge colouring: any two darts incident to
    the same node have distinct colours. Following the paper's convention
    (Fig. 3), an undirected loop counts as a {e single} incident edge
    (degree +1): it is a semi-edge, and in any simple lift a colour-[c]
    loop on [v] becomes a colour-[c] perfect matching inside the fiber
    of [v].

    Nodes are [0 .. n-1]; edges and loops are identified by dense ids. *)

type edge = { u : int; v : int; colour : int }
type loop = { node : int; colour : int }

(** A dart is one of the at most [Δ] "edge ends" at a node. A loop
    contributes exactly one dart (EC convention). *)
type dart =
  | To_neighbour of { neighbour : int; edge_id : int; colour : int }
  | Into_loop of { loop_id : int; colour : int }

type t

(** [create ~n ~edges ~loops] with [edges] as [(u, v, colour)] triples and
    [loops] as [(node, colour)] pairs.
    Colours must lie in [\[1, 2^30)] (see {!Darts}).
    @raise Invalid_argument on range errors, or if the colouring is not
    proper (two darts of equal colour at a node), or on a self-edge
    [(v, v, _)] (use [loops] for those). *)
val create : n:int -> edges:(int * int * int) list -> loops:(int * int) list -> t

(** Edges and loops column-wise, in id order: edge [j] is
    [(edge_u.(j), edge_v.(j), edge_colour.(j))] and loop [j] is
    [(loop_node.(j), loop_colour.(j))]. *)
type columns = {
  edge_u : int array;
  edge_v : int array;
  edge_colour : int array;
  loop_node : int array;
  loop_colour : int array;
}

(** [of_columns ~n cols] is [create] on columns — the array-native
    constructor that [create] and the lifts use. The graph keeps
    [cols] without copying: callers must not mutate the arrays
    afterwards. Like [create], it scatters the
    darts straight into the {!csr} table; no dart value is built.
    @raise Invalid_argument as [create] does, or if the two edge
    columns or the two loop columns differ in length from the first. *)
val of_columns : n:int -> columns -> t

(** [splice a ~loop:e b ~loop:f] is [(a - e) ⊎ (b - f)] plus one
    crossing edge between the nodes of loop [e] of [a] and loop [f] of
    [b], in their common colour: the unfolding of a loop (Fig. 6's GG,
    HH, with [a == b] and [e = f]) and the mixture GH. Ids follow
    {!of_columns} on the concatenated columns: [a]'s edges, then [b]'s
    (its nodes shifted by [n a]), then the crossing edge; [a]'s loops
    other than [e], then [b]'s other than [f], each in order. Both dart
    tables are copied across unchanged in key order, so no segment is
    re-sorted.
    @raise Invalid_argument if either loop does not exist, or if their
    colours differ. *)
val splice : t -> loop:int -> t -> loop:int -> t

val n : t -> int
val num_edges : t -> int
val num_loops : t -> int

(** The graph's columns, shared with it: treat the arrays as
    read-only. *)
val columns : t -> columns

(** [edge g id] and [loop g id] read one record off the {!columns}. *)
val edge : t -> int -> edge
val loop : t -> int -> loop
val edges : t -> edge list
val loops : t -> loop list

(** Darts at a node, sorted by colour. Read off the {!csr} table: each
    call allocates a fresh list, so inner loops should iterate the CSR. *)
val darts : t -> int -> dart list

(** The dart table, computed once at construction: a dart's key is its
    colour, so each node's segment is in ascending colour order
    (mirroring {!darts}). This is the representation the hot paths
    (refinement, runners, propagation) iterate. *)
val csr : t -> Darts.t

(** [dart_at g d] reconstructs the dart at CSR index [d]. *)
val dart_at : t -> int -> dart

val dart_colour : dart -> int

(** [dart_by_colour g v c] is the colour-[c] dart at [v], if any. *)
val dart_by_colour : t -> int -> int -> dart option

(** Degree with the EC loop convention (a loop counts once). *)
val degree : t -> int -> int

val max_degree : t -> int

(** Largest colour in use (colours are positive ints); 0 if none. *)
val max_colour : t -> int

(** [loops_at g v] are the ids of loops on [v]. *)
val loops_at : t -> int -> int list

(** [min_loops g] is the minimum, over nodes, of the number of loops —
    [k]-loopiness of [g] itself (not of its factor graph; see
    [Ld_cover.Loopy] for the Definition 1 notion). *)
val min_loops : t -> int

(** [is_tree_plus_loops g] holds iff [g] is a tree once its loops are
    ignored: connected, with [n - 1] edges and no cycle (parallel edges
    make a cycle). This is property P3 of the adversary's graphs. *)
val is_tree_plus_loops : t -> bool

(** [remove_loop g id] deletes one loop (used by the base case, Fig. 5). *)
val remove_loop : t -> int -> t

(** [disjoint_union a b] shifts [b]'s nodes by [n a] (edge and loop ids
    of [b] shift by [num_edges a] / [num_loops a]). *)
val disjoint_union : t -> t -> t

(** [add_edge g (u, v, c)] — [u <> v]; properness is re-checked. *)
val add_edge : t -> int * int * int -> t

(** [of_simple g ~colour] wraps a loop-free simple graph, colouring edge
    [(u, v)] (with [u < v]) by [colour (u, v)]. *)
val of_simple : Ld_graph.Graph.t -> colour:(int * int -> int) -> t

(** [to_simple g] forgets colours. @raise Invalid_argument if [g] has
    loops. *)
val to_simple : t -> Ld_graph.Graph.t

(** Structural equality with ids: the same [n], and for every id the
    same edge (its two endpoints in either order, the same colour) and
    the same loop. Ids matter: two graphs that list the same edges in a
    different order are not equal. Allocates nothing. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
