(** Flat CSR view of a properly edge-coloured simple graph.

    The streaming generators ([Generators.stream_*]) build mega-scale
    instances directly into these arrays with no intermediate lists;
    the packed runtime ([Ld_runtime.Packed]) iterates them. Dart [d]
    of node [v] occupies [row.(v) .. row.(v+1) - 1]; [endpoint.(d)] is
    the far endpoint (strictly ascending within a segment, the same
    order as [Graph.neighbours]) and [colour.(d)] the edge's colour
    under a proper edge colouring (positive; segments are
    endpoint-sorted, not colour-sorted). Treat all arrays as
    read-only. *)

type t = {
  n : int;
  row : int array;  (** length [n + 1] *)
  endpoint : int array;  (** length [row.(n)] *)
  colour : int array;  (** length [row.(n)] *)
  m : int;  (** number of edges, [row.(n) / 2] *)
}

val n : t -> int
val m : t -> int
val degree : t -> int -> int
val max_degree : t -> int

(** Largest colour in use; 0 on an edgeless graph. *)
val max_colour : t -> int

(** [mirror g] maps every dart to its reverse dart: for dart [d] of
    node [v], [(mirror g).(d)] is the dart of [endpoint.(d)] whose far
    endpoint is [v], as an absolute index into [endpoint]/[colour].
    An involution. O(darts · log Δ); computed once per run by the
    port-numbering executors.
    @raise Invalid_argument if some dart has no reverse. *)
val mirror : t -> int array

(** Structural well-formedness check (monotone rows, sorted segments,
    symmetry, proper colouring). @raise Invalid_argument on failure. *)
val validate : t -> unit

(** Exact array-level equality — the byte-identical check the
    differential tests use. *)
val equal : t -> t -> bool

(** [of_packed_edges ~n ~deg ~packed ~ne] assembles a CSR from the
    first [ne] entries of [packed] (edges encoded [u * n + v], u < v),
    sorting in place, colouring greedily in sorted-edge order (the
    [Edge_colouring.greedy] rule) and scattering darts through
    per-node cursors. [deg] must be the final degree array. *)
val of_packed_edges : n:int -> deg:int array -> packed:int array -> ne:int -> t

(** Greedy proper edge colouring of [ne] sorted packed edges; writes
    colour of edge [i] to [out_colour.(i)]. Processes edges in
    [Edge_colouring.greedy]'s order — ascending [u], descending [v]
    within a block (the order [Graph.edges] yields) — so the colours
    are byte-identical to the list path. Exposed for differential
    tests. *)
val greedy_colour_sorted_edges :
  n:int -> ne:int -> packed:int array -> out_colour:int array -> unit

(** Reference conversion from the list-based graph (used by the
    differential tests): segment order follows [Graph.neighbours]. *)
val of_graph : Graph.t -> colour:(int * int -> int) -> t

(** Small-size escape hatch for boxed oracles. *)
val to_graph : t -> Graph.t

val pp : Format.formatter -> t -> unit
