(** The dart table shared by the EC and PO models (paper §3.3).

    A dart is one end of an edge (or arc, or loop) at a node. Both
    models name a dart by an int {e key}: its colour in EC, its colour
    plus direction in PO. The table lists every node's darts as one
    contiguous segment in ascending key order, which is the order the
    refinement core, the view unfolding and the runners iterate.

    {b Key bound.} Colours lie in [\[1, 2^30)]. An EC key is the colour;
    a PO out-dart's key is the colour and an in-dart's key is
    [colour lor 2^30], so every key is below [2^31] and a PO segment
    lists out-darts by colour, then in-darts by colour (the PO1 port
    order). The bound keeps refinement's packed [key * (n + 1) + label]
    descriptors inside an OCaml int for every graph with
    [n + 1 <= 2^31]. *)

(** Dart [d] of node [v] occupies [row.(v) .. row.(v+1) - 1];
    [key.(d)] is its key (strictly ascending within a segment),
    [other.(d)] the node at the far end ([v] itself for a loop — loop
    reflection built in), and [code.(d)] the edge or arc id, or
    [-loop_id - 1] for a loop dart. Treat the arrays as read-only. *)
type t = { row : int array; key : int array; other : int array; code : int array }

(** Number of nodes: [Array.length row - 1]. *)
val n : t -> int

(** [check_colour who c] accepts [1 <= c < 2^30].
    @raise Invalid_argument naming [who] otherwise. *)
val check_colour : string -> int -> unit

(** PO key of a dart with the given direction and colour. *)
val po_key : out:bool -> int -> int

(** The colour a key names (the key itself in EC). *)
val colour : int -> int

(** Whether a PO key names an out-dart (always true of an EC key). *)
val is_out : int -> bool

(** [flip k] is the key of the same PO arc end seen from the far end:
    an out-dart of colour [c] arrives as the in-dart of colour [c] and
    vice versa. *)
val flip : int -> int

(** [build ~n ~clash each] scatters darts into a table: [each place]
    must call [place v key other code] once per dart, and is called
    twice (to count degrees, then to fill). Each segment is then sorted
    by key.
    @raise Invalid_argument with message [clash v key] if two darts at
    node [v] share [key]. *)
val build :
  n:int ->
  clash:(int -> int -> string) ->
  ((int -> int -> int -> int -> unit) -> unit) ->
  t

(** [find t v k] is the index of the dart at [v] with key [k], or [-1]. *)
val find : t -> int -> int -> int

(** [union a b] is the disjoint union of two tables, [b]'s nodes
    shifted by [n a]: array blits, no re-sorting. It describes the union
    by [row], [key] and [other] only (what refinement reads); its [code]
    is empty. *)
val union : t -> t -> t
