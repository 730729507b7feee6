(** Fractional matchings on PO multigraphs.

    Mirror of {!Fm} for the PO model. The node weight counts every arc
    end separately, and a directed loop counts {e twice} (its two darts:
    in any lift the loop unfolds into a directed cycle through the
    fiber, and each copy is incident to two distinct lifted arcs of the
    loop, each carrying the loop's weight).

    Under the §5.1 interpretation of an EC graph as a PO graph, an EC
    edge of colour [c] splits into two opposite arcs whose weights add
    up to the EC weight; an EC loop corresponds to a directed loop of
    half its EC weight. *)

module Q = Ld_arith.Q

type t

val create : Ld_models.Po.t -> arc_w:Q.t array -> loop_w:Q.t array -> t

(** [of_key_weights g weight_at] reads every item's weight at its darts,
    the PO mirror of {!Fm.of_colour_weights}: [weight_at v k] is the
    weight on [v]'s dart keyed [k] ({!Ld_models.Darts.po_key}). An arc
    is read at its tail's out-dart, then its head's in-dart, and a
    directed loop at its node's out-dart, then its in-dart; arcs go
    first, by id, then loops. At the first item whose two reads differ,
    [Error] names its kind, and no later dart is read. *)
val of_key_weights :
  Ld_models.Po.t -> (int -> int -> Q.t) -> (t, [ `Arc | `Loop ]) result

val zero : Ld_models.Po.t -> t
val graph : t -> Ld_models.Po.t
val arc_weight : t -> int -> Q.t
val loop_weight : t -> int -> Q.t

(** [y[v]]: sum over out darts, in darts, with loops counted twice. *)
val node_weight : t -> int -> Q.t

val is_saturated : t -> int -> bool

type violation =
  | Weight_out_of_range of [ `Arc of int | `Loop of int ]
  | Node_overloaded of int
  | Unsaturated_arc of int
  | Unsaturated_loop of int

val validity_violations : t -> violation list
val maximality_violations : t -> violation list
val is_fm : t -> bool
val is_maximal_fm : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
