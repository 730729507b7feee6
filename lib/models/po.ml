type arc = { tail : int; head : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | Out of { neighbour : int; arc_id : int; colour : int }
  | In of { neighbour : int; arc_id : int; colour : int }
  | Loop_out of { loop_id : int; colour : int }
  | Loop_in of { loop_id : int; colour : int }

(* Arcs and loops column-wise, as in [Ec]: arc [j] is
   [(arc_tail.(j), arc_head.(j), arc_colour.(j))], loop [j] is
   [(loop_node.(j), loop_colour.(j))]. Dart lists are never stored:
   [darts] reads them off the table. *)
type t = {
  n : int;
  arc_tail : int array;
  arc_head : int array;
  arc_colour : int array;
  loop_node : int array;
  loop_colour : int array;
  csr : Darts.t;
}

let dart_colour = function
  | Out { colour; _ } | In { colour; _ } -> colour
  | Loop_out { colour; _ } | Loop_in { colour; _ } -> colour

let dart_is_out = function
  | Out _ | Loop_out _ -> true
  | In _ | Loop_in _ -> false

(* An arc contributes an out-dart at its tail and an in-dart at its
   head, a loop both at its node; keys carry the direction, so sorting
   by key lists out-darts by colour, then in-darts by colour. *)
let create ~n ~arcs ~loops =
  if n < 0 then invalid_arg "Po.create: negative n";
  let arcs = Array.of_list arcs and loops = Array.of_list loops in
  let check_node v = if v < 0 || v >= n then invalid_arg "Po.create: node out of range" in
  let check_colour = Darts.check_colour "Po.create" in
  Array.iter
    (fun (tail, head, colour) ->
      check_node tail;
      check_node head;
      check_colour colour;
      if tail = head then invalid_arg "Po.create: self-arc; use ~loops")
    arcs;
  Array.iter
    (fun (node, colour) ->
      check_node node;
      check_colour colour)
    loops;
  let arc_tail = Array.map (fun (t, _, _) -> t) arcs
  and arc_head = Array.map (fun (_, h, _) -> h) arcs
  and arc_colour = Array.map (fun (_, _, c) -> c) arcs
  and loop_node = Array.map fst loops
  and loop_colour = Array.map snd loops in
  let clash v k =
    Printf.sprintf "Po.create: node %d has two %s darts of colour %d" v
      (if Darts.is_out k then "outgoing" else "incoming")
      (Darts.colour k)
  in
  let out = Darts.po_key ~out:true and inn = Darts.po_key ~out:false in
  let csr =
    Darts.build ~n ~clash (fun place ->
        for j = 0 to Array.length arc_tail - 1 do
          place arc_tail.(j) (out arc_colour.(j)) arc_head.(j) j;
          place arc_head.(j) (inn arc_colour.(j)) arc_tail.(j) j
        done;
        for j = 0 to Array.length loop_node - 1 do
          place loop_node.(j) (out loop_colour.(j)) loop_node.(j) (-j - 1);
          place loop_node.(j) (inn loop_colour.(j)) loop_node.(j) (-j - 1)
        done)
  in
  { n; arc_tail; arc_head; arc_colour; loop_node; loop_colour; csr }

let n g = g.n
let num_arcs g = Array.length g.arc_tail
let num_loops g = Array.length g.loop_node
let arc g id =
  { tail = g.arc_tail.(id); head = g.arc_head.(id); colour = g.arc_colour.(id) }
let loop g id = { node = g.loop_node.(id); colour = g.loop_colour.(id) }
let arcs g = List.init (num_arcs g) (arc g)
let loops g = List.init (num_loops g) (loop g)
let csr g = g.csr
let degree g v = g.csr.row.(v + 1) - g.csr.row.(v)

let dart_at g d =
  let { Darts.key; other; code; _ } = g.csr in
  let colour = Darts.colour key.(d) and out = Darts.is_out key.(d) in
  match (code.(d) >= 0, out) with
  | true, true -> Out { neighbour = other.(d); arc_id = code.(d); colour }
  | true, false -> In { neighbour = other.(d); arc_id = code.(d); colour }
  | false, true -> Loop_out { loop_id = -code.(d) - 1; colour }
  | false, false -> Loop_in { loop_id = -code.(d) - 1; colour }

let ports g v =
  let lo = g.csr.row.(v) in
  Array.init (degree g v) (fun i -> dart_at g (lo + i))

let darts g v = Array.to_list (ports g v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  Array.fold_left Stdlib.max (Array.fold_left Stdlib.max 0 g.arc_colour) g.loop_colour

let of_ports ~n ~connections =
  let max_port =
    List.fold_left
      (fun acc (_, i, _, j) -> Stdlib.max acc (Stdlib.max i j))
      0 connections
  in
  let encode i j = ((i - 1) * max_port) + j in
  let used : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let claim v p =
    if p < 1 then invalid_arg "Po.of_ports: ports are 1-based";
    if Hashtbl.mem used (v, p) then
      invalid_arg (Printf.sprintf "Po.of_ports: port %d of node %d used twice" p v);
    Hashtbl.add used (v, p) ()
  in
  let arcs = ref [] and loops = ref [] in
  List.iter
    (fun (u, i, v, j) ->
      claim u i;
      claim v j;
      if u = v then loops := (u, encode i j) :: !loops
      else arcs := (u, v, encode i j) :: !arcs)
    connections;
  create ~n ~arcs:(List.rev !arcs) ~loops:(List.rev !loops)

let of_ec ec =
  let arcs =
    List.concat_map
      (fun (e : Ec.edge) -> [ (e.u, e.v, e.colour); (e.v, e.u, e.colour) ])
      (Ec.edges ec)
  in
  let loops = List.map (fun (l : Ec.loop) -> (l.node, l.colour)) (Ec.loops ec) in
  create ~n:(Ec.n ec) ~arcs ~loops

(* Lexicographic on int triples/pairs: same order as polymorphic compare. *)
let triple_compare (a1, a2, a3) (b1, b2, b3) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else Int.compare a3 b3

let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let equal a b =
  a.n = b.n
  && List.equal
       (fun x y -> triple_compare x y = 0)
       (List.sort triple_compare (List.map (fun x -> (x.tail, x.head, x.colour)) (arcs a)))
       (List.sort triple_compare (List.map (fun x -> (x.tail, x.head, x.colour)) (arcs b)))
  && List.equal
       (fun x y -> pair_compare x y = 0)
       (List.sort pair_compare (List.map (fun (l : loop) -> (l.node, l.colour)) (loops a)))
       (List.sort pair_compare (List.map (fun (l : loop) -> (l.node, l.colour)) (loops b)))

let pp fmt g =
  Format.fprintf fmt "@[<v>po-graph n=%d@," g.n;
  List.iter
    (fun a -> Format.fprintf fmt "  arc %d->%d colour %d@," a.tail a.head a.colour)
    (arcs g);
  List.iter
    (fun (l : loop) -> Format.fprintf fmt "  loop @@%d colour %d@," l.node l.colour)
    (loops g);
  Format.fprintf fmt "@]"
