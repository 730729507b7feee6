(** Edge-coloured multigraphs with loops — the EC model (paper §3.3, §3.5).

    An EC-graph carries a proper edge colouring: any two darts incident to
    the same node have distinct colours. Following the paper's convention
    (Fig. 3), an undirected loop counts as a {e single} incident edge
    (degree +1): it is a semi-edge, and in any simple lift a colour-[c]
    loop on [v] becomes a colour-[c] perfect matching inside the fiber
    of [v].

    Nodes are [0 .. n-1]; edges and loops are identified by dense ids.
    Loop ids run in (node, colour) order: a graph stores its loops as
    one sorted run, apart from the dart table of its edges. *)

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

(** Edges and loops column-wise: edge [j] is
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
    constructor that [create] and the lifts use. Edge ids are the
    column order. Loop ids are (node, colour) order: loops given in
    that order keep their ids, and loops given out of order get new
    ones (sorted by node, then colour). The graph keeps the edge
    columns, and an ordered [loop_colour], without copying: callers
    must not mutate the arrays afterwards. Like [create], it scatters
    the edge darts straight into the {!edge_darts} table; no dart value
    is built.
    @raise Invalid_argument as [create] does, or if the two edge
    columns or the two loop columns differ in length from the first. *)
val of_columns : n:int -> columns -> t

(** [splice a ~loop:e b ~loop:f] is [(a - e) ⊎ (b - f)] plus one
    crossing edge between the nodes of loop [e] of [a] and loop [f] of
    [b], in their common colour: the unfolding of a loop (Fig. 6's GG,
    HH, with [a == b] and [e = f]) and the mixture GH. Ids follow
    {!of_columns} on the concatenated columns: [a]'s edges, then [b]'s
    (its nodes shifted by [n a]), then the crossing edge; [a]'s loops
    other than [e], then [b]'s other than [f], each in order (which is
    (node, colour) order again). Both edge tables are copied across in
    key order with one crossing dart slotted in at each end, and the
    loop runs end to end without [e] and [f], so nothing is re-sorted.
    @raise Invalid_argument if either loop does not exist, or if their
    colours differ. *)
val splice : t -> loop:int -> t -> loop:int -> t

val n : t -> int
val num_edges : t -> int
val num_loops : t -> int

(** The graph as columns, for {!of_columns}: the edge columns and
    [loop_colour] are the graph's own (treat them as read-only), and
    [loop_node] is built on every call. *)
val columns : t -> columns

(** The columns the graph stores, shared with it (treat the arrays as
    read-only): [edge_u], [edge_v] and [edge_colour] as in {!columns};
    [loop_colour g] gives loop [j]'s colour, and node [v]'s loops are
    ids [(loop_row g).(v) .. (loop_row g).(v + 1) - 1], with colours
    ascending. A hot path reads these rather than {!columns}. *)
val edge_u : t -> int array

val edge_v : t -> int array
val edge_colour : t -> int array
val loop_row : t -> int array
val loop_colour : t -> int array

(** [edge g id] and [loop g id] read one record off the columns; a
    loop's node is a binary search of {!loop_row}. *)
val edge : t -> int -> edge
val loop : t -> int -> loop
val edges : t -> edge list
val loops : t -> loop list

(** Darts at a node, edges and loops merged in ascending colour. Each
    call allocates a fresh list, so inner loops should walk
    {!edge_darts} and the node's loop run side by side. *)
val darts : t -> int -> dart list

(** The edge dart table, computed once at construction: two darts per
    edge, none for loops. A dart's key is its colour, so each node's
    segment is in ascending colour order, and its code is the edge id.
    With the loop run ({!loop_row}, {!loop_colour}) this is the
    representation the hot paths (refinement, runners, propagation)
    iterate. *)
val edge_darts : t -> Darts.t

val dart_colour : dart -> int

(** [dart_by_colour g v c] is the colour-[c] dart at [v], if any: a
    binary search of [v]'s edge segment, then of its loop run. *)
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
