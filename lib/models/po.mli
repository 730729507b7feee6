(** Port-numbered, oriented multigraphs — the PO model (paper §3.3, Fig. 2).

    We use the paper's edge-coloured-digraph presentation (PO2): arcs are
    directed and coloured so that the outgoing arcs at each node carry
    distinct colours and the incoming arcs at each node carry distinct
    colours (an outgoing and an incoming arc may share a colour).

    A directed loop contributes {e two} darts to its node — one outgoing
    and one incoming (paper Fig. 3).

    The equivalent port-numbering presentation (PO1) is available through
    {!ports} / {!of_ports}: ports at a node are all outgoing darts ordered
    by colour followed by all incoming darts ordered by colour. *)

type arc = { tail : int; head : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | Out of { neighbour : int; arc_id : int; colour : int }
  | In of { neighbour : int; arc_id : int; colour : int }
  | Loop_out of { loop_id : int; colour : int }
  | Loop_in of { loop_id : int; colour : int }

type t

(** [create ~n ~arcs ~loops] with arcs as [(tail, head, colour)] and loops
    as [(node, colour)]. Colours must lie in [\[1, 2^30)] (see {!Darts}).
    @raise Invalid_argument on range errors or if out-colours (or
    in-colours) collide at a node. *)
val create : n:int -> arcs:(int * int * int) list -> loops:(int * int) list -> t

val n : t -> int
val num_arcs : t -> int
val num_loops : t -> int
val arc : t -> int -> arc
val loop : t -> int -> loop
val arcs : t -> arc list
val loops : t -> loop list

(** All darts at a node: outgoing sorted by colour, then incoming sorted
    by colour (the PO2 → PO1 convention). *)
val darts : t -> int -> dart list

(** The dart table, computed once at construction: keys are
    {!Darts.po_key}s, so each segment lists the darts in {!darts}
    order. *)
val csr : t -> Darts.t

(** Degree with the PO loop convention (a loop counts twice). *)
val degree : t -> int -> int

val max_degree : t -> int
val max_colour : t -> int
val dart_colour : dart -> int
val dart_is_out : dart -> bool

(** Port view (PO1): [ports g v] lists darts in port order [1..deg]. *)
val ports : t -> int -> dart array

(** [of_ports ~n ~connections] builds a PO-graph from a port numbering
    with orientation (the PO1 presentation). Each connection
    [(u, i, v, j)] is an oriented edge [u → v] attached to port [i] of
    [u] and port [j] of [v]; [u = v] yields a directed loop. Following
    the paper's Fig. 2(a), the arc gets colour [encode (i, j)] (with
    [encode] injective on the port pairs in use), so distinct out-ports
    (resp. in-ports) yield distinct out-colours (resp. in-colours).
    @raise Invalid_argument if a port is used twice at a node. *)
val of_ports : n:int -> connections:(int * int * int * int) list -> t

(** [of_ec ec] is the §5.1 interpretation: every EC edge [{u,v}] of
    colour [c] becomes the two arcs [(u,v,c)] and [(v,u,c)]; every EC
    loop becomes a directed loop of the same colour. Degrees double. *)
val of_ec : Ec.t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
