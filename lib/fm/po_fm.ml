module Po = Ld_models.Po
module Q = Ld_arith.Q
module Darts = Ld_models.Darts

type t = { graph : Po.t; arc_w : Q.t array; loop_w : Q.t array }

let create graph ~arc_w ~loop_w =
  if Array.length arc_w <> Po.num_arcs graph then
    invalid_arg "Po_fm.create: arc weight count mismatch";
  if Array.length loop_w <> Po.num_loops graph then
    invalid_arg "Po_fm.create: loop weight count mismatch";
  { graph; arc_w; loop_w }

let of_key_weights graph weight_at =
  let exception Disagree of [ `Arc | `Loop ] in
  let both item u ku v kv =
    let a = weight_at u ku and b = weight_at v kv in
    if not (Q.equal a b) then raise_notrace (Disagree item);
    a
  in
  let out = Darts.po_key ~out:true and into = Darts.po_key ~out:false in
  match
    let arc_w =
      Array.init (Po.num_arcs graph) (fun j ->
          let { Po.tail; head; colour } = Po.arc graph j in
          both `Arc tail (out colour) head (into colour))
    in
    let loop_w =
      Array.init (Po.num_loops graph) (fun j ->
          let { Po.node; colour } = Po.loop graph j in
          both `Loop node (out colour) node (into colour))
    in
    create graph ~arc_w ~loop_w
  with
  | y -> Ok y
  | exception Disagree item -> Error item

let zero graph =
  {
    graph;
    arc_w = Array.make (Po.num_arcs graph) Q.zero;
    loop_w = Array.make (Po.num_loops graph) Q.zero;
  }

let graph y = y.graph
let arc_weight y id = y.arc_w.(id)
let loop_weight y id = y.loop_w.(id)

let dart_weight y = function
  | Po.Out { arc_id; _ } | Po.In { arc_id; _ } -> y.arc_w.(arc_id)
  | Po.Loop_out { loop_id; _ } | Po.Loop_in { loop_id; _ } -> y.loop_w.(loop_id)

let node_weight y v =
  Q.sum (List.map (dart_weight y) (Po.darts y.graph v))

let is_saturated y v = Q.equal (node_weight y v) Q.one

type violation =
  | Weight_out_of_range of [ `Arc of int | `Loop of int ]
  | Node_overloaded of int
  | Unsaturated_arc of int
  | Unsaturated_loop of int

let in_range w = Q.sign w >= 0 && Q.compare w Q.one <= 0

let validity_violations y =
  let acc = ref [] in
  Array.iteri
    (fun id w -> if not (in_range w) then acc := Weight_out_of_range (`Arc id) :: !acc)
    y.arc_w;
  Array.iteri
    (fun id w -> if not (in_range w) then acc := Weight_out_of_range (`Loop id) :: !acc)
    y.loop_w;
  for v = 0 to Po.n y.graph - 1 do
    if Q.compare (node_weight y v) Q.one > 0 then acc := Node_overloaded v :: !acc
  done;
  List.rev !acc

let maximality_violations y =
  let acc = ref [] in
  List.iteri
    (fun id (a : Po.arc) ->
      if not (is_saturated y a.tail || is_saturated y a.head) then
        acc := Unsaturated_arc id :: !acc)
    (Po.arcs y.graph);
  List.iteri
    (fun id (l : Po.loop) ->
      if not (is_saturated y l.node) then acc := Unsaturated_loop id :: !acc)
    (Po.loops y.graph);
  List.rev !acc

let is_fm y = validity_violations y = []
let is_maximal_fm y = is_fm y && maximality_violations y = []

let equal a b =
  Po.equal a.graph b.graph
  && Array.for_all2 Q.equal a.arc_w b.arc_w
  && Array.for_all2 Q.equal a.loop_w b.loop_w

let pp fmt y =
  Format.fprintf fmt "@[<v>po-fm on %d nodes:@," (Po.n y.graph);
  List.iteri
    (fun id (a : Po.arc) ->
      Format.fprintf fmt "  y(%d->%d, colour %d) = %a@," a.tail a.head a.colour
        Q.pp y.arc_w.(id))
    (Po.arcs y.graph);
  List.iteri
    (fun id (l : Po.loop) ->
      Format.fprintf fmt "  y(loop@@%d, colour %d) = %a@," l.node l.colour Q.pp
        y.loop_w.(id))
    (Po.loops y.graph);
  Format.fprintf fmt "@]"
