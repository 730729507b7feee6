(** A properly edge-coloured simple graph: {!Graph.t}'s arrays plus a
    colour and a reverse per dart.

    Dart [d] of node [v] occupies [row.(v) .. row.(v+1) - 1];
    [endpoint.(d)] is the far endpoint (strictly ascending within a
    segment, the same order as [Graph.neighbours]) and [colour.(d)] the
    edge's colour under a proper edge colouring (positive; segments
    are endpoint-sorted, not colour-sorted). [mirror.(d)] is the
    reverse dart, the one of [endpoint.(d)] pointing back at [v]: it
    depends only on the graph, so whoever builds a [t] fills it once
    ({!greedy}, [Generators.stream_biregular_tree]) and every run of the
    packed runtime ([Ld_runtime.Packed]) reads it. Treat all arrays as
    read-only. *)

type t = {
  n : int;
  row : int array;  (** length [n + 1] *)
  endpoint : int array;  (** length [row.(n)] *)
  colour : int array;  (** length [row.(n)] *)
  mirror : int array;
      (** length [row.(n)]: [Graph.mirror] of {!to_graph}, an involution *)
  m : int;  (** number of edges, [row.(n) / 2] *)
}

(** [greedy g] colours [g]'s edges in [Graph.edges] order (ascending
    [u], descending [v]), each with the smallest colour free at both
    endpoints: at most [2Δ - 1] colours. Shares [g]'s arrays, and
    keeps the {!Graph.mirror} it pairs the darts' colours with. *)
val greedy : Graph.t -> t

(** The uncoloured graph, sharing the arrays. O(1). *)
val to_graph : t -> Graph.t

val n : t -> int
val m : t -> int
val max_degree : t -> int

(** Largest colour in use; 0 on an edgeless graph. *)
val max_colour : t -> int

(** The stored [mirror] field: the reverse of every dart, as an
    absolute index into [endpoint]/[colour]. O(1), no check; {!validate}
    checks it against the other arrays. *)
val mirror : t -> int array

(** Structural well-formedness check (monotone rows, sorted segments,
    proper colouring, and a [mirror] of length [row.(n)] that is an
    involution pairing each dart with a dart pointing back at its node,
    of the same colour — which makes the graph symmetric).
    @raise Invalid_argument on failure, a stale or wrong mirror
    included. *)
val validate : t -> unit

(** Equality of the defining fields [n], [m], [row], [endpoint] and
    [colour]; [mirror] follows from them and is not compared. *)
val equal : t -> t -> bool
