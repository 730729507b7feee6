(** Structural graph metrics.

    Locality facts live and die by distances: a [t]-round algorithm's
    output at [v] is a function of the radius-[t] ball, so the diameter
    bounds the time of any global computation, while the girth controls
    how long a graph looks like a tree — the regime every lower-bound
    construction in this area (including Section 4's trees-plus-loops)
    exploits. *)

(** Eccentricity of a node (longest shortest path from it).
    @raise Invalid_argument if the graph is disconnected. *)
val eccentricity : Graph.t -> int -> int

(** Diameter; 0 for a single node.
    @raise Invalid_argument if the graph is disconnected. *)
val diameter : Graph.t -> int

(** Radius (minimum eccentricity).
    @raise Invalid_argument if the graph is disconnected. *)
val radius : Graph.t -> int

(** Length of a shortest cycle; [None] for forests. *)
val girth : Graph.t -> int option

(** Sorted degree multiset. *)
val degree_sequence : Graph.t -> int list
