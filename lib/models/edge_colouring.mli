(** Proper edge colourings of simple graphs.

    The EC model assumes a proper edge colouring with [O(Δ)] colours is
    given with the input (paper §2.1). These helpers manufacture such
    colourings so that simple graphs can be fed to EC algorithms. *)

(** [greedy g] is [Ld_graph.Csr.greedy g] as a function: the colour of
    edge [(u, v)], in either orientation. At most [2Δ - 1] colours
    ([1..2Δ-1]), each edge taking the smallest colour free at both
    endpoints in [Graph.edges] order.
    The returned function raises [Invalid_argument] on a non-edge. *)
val greedy : Ld_graph.Graph.t -> (int * int) -> int

(** [num_colours g colour] is the number of distinct colours used. *)
val num_colours : Ld_graph.Graph.t -> ((int * int) -> int) -> int

(** [is_proper g colour] checks that adjacent edges get distinct colours. *)
val is_proper : Ld_graph.Graph.t -> ((int * int) -> int) -> bool

(** [ec_of_simple g] is [Ec.of_simple g ~colour:(greedy g)]. *)
val ec_of_simple : Ld_graph.Graph.t -> Ec.t
