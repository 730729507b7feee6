(** A properly edge-coloured simple graph: {!Graph.t}'s arrays plus a
    colour per dart.

    Dart [d] of node [v] occupies [row.(v) .. row.(v+1) - 1];
    [endpoint.(d)] is the far endpoint (strictly ascending within a
    segment, the same order as [Graph.neighbours]) and [colour.(d)] the
    edge's colour under a proper edge colouring (positive; segments
    are endpoint-sorted, not colour-sorted). The packed runtime
    ([Ld_runtime.Packed]) reads these arrays directly. Treat all arrays
    as read-only. *)

type t = {
  n : int;
  row : int array;  (** length [n + 1] *)
  endpoint : int array;  (** length [row.(n)] *)
  colour : int array;  (** length [row.(n)] *)
  m : int;  (** number of edges, [row.(n) / 2] *)
}

(** [greedy g] colours [g]'s edges in [Graph.edges] order (ascending
    [u], descending [v]), each with the smallest colour free at both
    endpoints: at most [2Δ - 1] colours. Shares [g]'s arrays. *)
val greedy : Graph.t -> t

(** The uncoloured graph, sharing the arrays. O(1). *)
val to_graph : t -> Graph.t

val n : t -> int
val m : t -> int
val max_degree : t -> int

(** Largest colour in use; 0 on an edgeless graph. *)
val max_colour : t -> int

(** [Graph.mirror] of {!to_graph}: the reverse of every dart, as an
    absolute index into [endpoint]/[colour]. Computed once per run by
    the port-numbering executors.
    @raise Invalid_argument if some dart has no reverse. *)
val mirror : t -> int array

(** Structural well-formedness check (monotone rows, sorted segments,
    symmetry, proper colouring). @raise Invalid_argument on failure. *)
val validate : t -> unit

(** Exact array-level equality. *)
val equal : t -> t -> bool
