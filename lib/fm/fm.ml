module Ec = Ld_models.Ec
module Darts = Ld_models.Darts
module Q = Ld_arith.Q
module Obs = Ld_obs.Obs

(* The adversary feasibility-checks every probe output; these make the
   checker traffic (and any violations found) visible. *)
let c_validity = Obs.Counter.make "fm.check.validity"
let c_maximality = Obs.Counter.make "fm.check.maximality"
let c_violations = Obs.Counter.make "fm.check.violations"

type t = { graph : Ec.t; edge_w : Q.t array; loop_w : Q.t array }

let create graph ~edge_w ~loop_w =
  if Array.length edge_w <> Ec.num_edges graph then
    invalid_arg "Fm.create: edge weight count mismatch";
  if Array.length loop_w <> Ec.num_loops graph then
    invalid_arg "Fm.create: loop weight count mismatch";
  { graph; edge_w; loop_w }

(* An edge's weight is read at both ends, which must agree; a loop's at
   its node, walking each node's run. *)
let of_colour_weights graph weight_at =
  let eu = Ec.edge_u graph and ev = Ec.edge_v graph and ec = Ec.edge_colour graph in
  let edge_w =
    Array.init (Ec.num_edges graph) (fun j ->
        let wu = weight_at eu.(j) ec.(j) and wv = weight_at ev.(j) ec.(j) in
        assert (Q.equal wu wv);
        wu)
  in
  let loop_row = Ec.loop_row graph and loop_colour = Ec.loop_colour graph in
  let loop_w = Array.make (Ec.num_loops graph) Q.zero in
  for v = 0 to Ec.n graph - 1 do
    for j = loop_row.(v) to loop_row.(v + 1) - 1 do
      loop_w.(j) <- weight_at v loop_colour.(j)
    done
  done;
  create graph ~edge_w ~loop_w

let zero graph =
  {
    graph;
    edge_w = Array.make (Ec.num_edges graph) Q.zero;
    loop_w = Array.make (Ec.num_loops graph) Q.zero;
  }

let graph y = y.graph
let edge_weight y id = y.edge_w.(id)
let loop_weight y id = y.loop_w.(id)
let edge_weights y = y.edge_w
let loop_weights y = y.loop_w

let dart_weight y = function
  | Ec.To_neighbour { edge_id; _ } -> y.edge_w.(edge_id)
  | Ec.Into_loop { loop_id; _ } -> y.loop_w.(loop_id)

(* A node's edge darts, then its loop run. *)
let sum_at y ({ Darts.row; code; _ } : Darts.t) loop_row v =
  let acc = ref Q.zero in
  for d = row.(v) to row.(v + 1) - 1 do
    acc := Q.add !acc y.edge_w.(code.(d))
  done;
  for j = loop_row.(v) to loop_row.(v + 1) - 1 do
    acc := Q.add !acc y.loop_w.(j)
  done;
  !acc

let node_weight y v = sum_at y (Ec.edge_darts y.graph) (Ec.loop_row y.graph) v
let is_saturated y v = Q.equal (node_weight y v) Q.one

(* All node weights in one pass over the edge darts and loop runs; the
   feasibility checkers below use this to test saturation per node once
   instead of once per incident edge. *)
let node_weights y =
  let n = Ec.n y.graph in
  let darts = Ec.edge_darts y.graph and loop_row = Ec.loop_row y.graph in
  let w = Array.make n Q.zero in
  for v = 0 to n - 1 do
    w.(v) <- sum_at y darts loop_row v
  done;
  w


let total y =
  Q.add
    (Array.fold_left Q.add Q.zero y.edge_w)
    (Array.fold_left Q.add Q.zero y.loop_w)

type violation =
  | Weight_out_of_range of [ `Edge of int | `Loop of int ]
  | Node_overloaded of int
  | Unsaturated_edge of int
  | Unsaturated_loop of int

let in_range w = Q.sign w >= 0 && Q.compare w Q.one <= 0

(* [Unsaturated_loop] for every loop at an unsaturated node, consed
   onto [acc] from the top down, so the list ascends by id. *)
let unsaturated_loops y sat acc =
  let loop_row = Ec.loop_row y.graph in
  for v = Ec.n y.graph - 1 downto 0 do
    if not (sat v) then
      for id = loop_row.(v + 1) - 1 downto loop_row.(v) do
        acc := Unsaturated_loop id :: !acc
      done
  done

let validity_violations y =
  Obs.Counter.incr c_validity;
  Obs.with_span "fm.check.validity" @@ fun () ->
  let acc = ref [] in
  Array.iteri
    (fun id w -> if not (in_range w) then acc := Weight_out_of_range (`Edge id) :: !acc)
    y.edge_w;
  Array.iteri
    (fun id w -> if not (in_range w) then acc := Weight_out_of_range (`Loop id) :: !acc)
    y.loop_w;
  let w = node_weights y in
  for v = 0 to Ec.n y.graph - 1 do
    if Q.compare w.(v) Q.one > 0 then acc := Node_overloaded v :: !acc
  done;
  let vs = List.rev !acc in
  if vs <> [] then Obs.Counter.add c_violations (List.length vs);
  vs

let maximality_violations y =
  Obs.Counter.incr c_maximality;
  Obs.with_span "fm.check.maximality" @@ fun () ->
  let w = node_weights y in
  let sat v = Q.equal w.(v) Q.one in
  let acc = ref [] in
  unsaturated_loops y sat acc;
  let eu = Ec.edge_u y.graph and ev = Ec.edge_v y.graph in
  for id = Ec.num_edges y.graph - 1 downto 0 do
    if not (sat eu.(id) || sat ev.(id)) then acc := Unsaturated_edge id :: !acc
  done;
  if !acc <> [] then Obs.Counter.add c_violations (List.length !acc);
  !acc

(* Exactly [validity_violations y @ maximality_violations y], sharing
   one node-weight pass between the two checker families. The adversary
   feasibility-checks every probe output for validity AND maximality,
   and the exact-arithmetic Q sums of [node_weights] dominate the
   checker cost — fusing halves them. Violation order and counter
   traffic match the unfused pair, so refutation records are
   reproduced verbatim. *)
let feasibility_violations y =
  Obs.Counter.incr c_validity;
  Obs.Counter.incr c_maximality;
  Obs.with_span "fm.check.feasibility" @@ fun () ->
  let n = Ec.n y.graph in
  let w = node_weights y in
  let sat = Array.init n (fun v -> Q.equal w.(v) Q.one) in
  let acc = ref [] in
  unsaturated_loops y (Array.get sat) acc;
  let eu = Ec.edge_u y.graph and ev = Ec.edge_v y.graph in
  for id = Ec.num_edges y.graph - 1 downto 0 do
    if not (sat.(eu.(id)) || sat.(ev.(id))) then acc := Unsaturated_edge id :: !acc
  done;
  for v = n - 1 downto 0 do
    if Q.compare w.(v) Q.one > 0 then acc := Node_overloaded v :: !acc
  done;
  for id = Array.length y.loop_w - 1 downto 0 do
    if not (in_range y.loop_w.(id)) then
      acc := Weight_out_of_range (`Loop id) :: !acc
  done;
  for id = Array.length y.edge_w - 1 downto 0 do
    if not (in_range y.edge_w.(id)) then
      acc := Weight_out_of_range (`Edge id) :: !acc
  done;
  let vs = !acc in
  if vs <> [] then Obs.Counter.add c_violations (List.length vs);
  vs

let is_fm y = validity_violations y = []
let is_maximal_fm y = is_fm y && maximality_violations y = []

let is_fully_saturated y =
  let w = node_weights y in
  Array.for_all (fun x -> Q.equal x Q.one) w

let equal a b =
  Ec.equal a.graph b.graph
  && Array.for_all2 Q.equal a.edge_w b.edge_w
  && Array.for_all2 Q.equal a.loop_w b.loop_w

(* Each item's weight is read straight off the base: a binary search of
   the base node's edge segment, then of its loop run, with no dart
   record or option per item. A total edge may cover a base loop (an
   unfolding's crossing edge does). *)
let pull_back (cov : Ld_cover.Lift.covering) y =
  if not (Ec.equal y.graph cov.base) then
    invalid_arg "Fm.pull_back: matching is not on the covering's base";
  let base = Ec.edge_darts cov.base in
  let base_row = Ec.loop_row cov.base and base_colour = Ec.loop_colour cov.base in
  let base_weight v colour =
    let d = Darts.find base v colour in
    if d >= 0 then y.edge_w.(base.code.(d))
    else begin
      let j = Darts.search base_colour base_row.(v) base_row.(v + 1) colour in
      if j < 0 then invalid_arg "Fm.pull_back: not a covering (missing base dart)";
      y.loop_w.(j)
    end
  in
  let total = cov.total in
  let eu = Ec.edge_u total and ec = Ec.edge_colour total in
  let edge_w =
    Array.init (Ec.num_edges total) (fun id -> base_weight cov.map.(eu.(id)) ec.(id))
  in
  let loop_row = Ec.loop_row total and loop_colour = Ec.loop_colour total in
  let loop_w = Array.make (Ec.num_loops total) Q.zero in
  for v = 0 to Ec.n total - 1 do
    for j = loop_row.(v) to loop_row.(v + 1) - 1 do
      loop_w.(j) <- base_weight cov.map.(v) loop_colour.(j)
    done
  done;
  { graph = total; edge_w; loop_w }

(* [pull_back cov base] without building it. A covering gives total
   node [v] the colours of base node [cov.map.(v)]; a total loop covers
   a base loop, and a total edge an edge or a loop (an unfolding's
   crossing edge covers the loop it replaced). So the two nodes' edges
   and loops, each merged in colour order, are walked side by side, and
   the entry at each position must carry the colour and the weight of
   the base entry beside it. Colours are checked on every entry, so a
   non-covering raises whatever the weights. *)
let is_pull_back (cov : Ld_cover.Lift.covering) ~base ~total =
  if not (Ec.equal base.graph cov.base) then
    invalid_arg "Fm.is_pull_back: matching is not on the covering's base";
  Ec.equal total.graph cov.total
  &&
  let b = Ec.edge_darts base.graph and t = Ec.edge_darts total.graph in
  let brow = Ec.loop_row base.graph and bcol = Ec.loop_colour base.graph in
  let trow = Ec.loop_row total.graph and tcol = Ec.loop_colour total.graph in
  let same = ref true in
  for v = 0 to Ec.n total.graph - 1 do
    let u = cov.map.(v) in
    let thi = t.row.(v + 1) and tjhi = trow.(v + 1) in
    let bhi = b.row.(u + 1) and bjhi = brow.(u + 1) in
    if bhi - b.row.(u) + bjhi - brow.(u) <> thi - t.row.(v) + tjhi - trow.(v) then
      invalid_arg "Fm.is_pull_back: not a covering (degrees differ)";
    let td = ref t.row.(v) and tj = ref trow.(v) in
    let bd = ref b.row.(u) and bj = ref brow.(u) in
    while !td < thi || !tj < tjhi do
      let t_edge = !td < thi && (!tj >= tjhi || t.key.(!td) < tcol.(!tj)) in
      let b_edge = !bd < bhi && (!bj >= bjhi || b.key.(!bd) < bcol.(!bj)) in
      let tc = if t_edge then t.key.(!td) else tcol.(!tj) in
      let bc = if b_edge then b.key.(!bd) else bcol.(!bj) in
      if tc <> bc then invalid_arg "Fm.is_pull_back: not a covering (colours differ)";
      if !same then
        same :=
          Q.equal
            (if t_edge then total.edge_w.(t.code.(!td)) else total.loop_w.(!tj))
            (if b_edge then base.edge_w.(b.code.(!bd)) else base.loop_w.(!bj));
      if t_edge then incr td else incr tj;
      if b_edge then incr bd else incr bj
    done
  done;
  !same

let pp fmt y =
  Format.fprintf fmt "@[<v>fm on %d nodes:@," (Ec.n y.graph);
  List.iteri
    (fun id (e : Ec.edge) ->
      Format.fprintf fmt "  y(%d-%d, colour %d) = %a@," e.u e.v e.colour Q.pp
        y.edge_w.(id))
    (Ec.edges y.graph);
  List.iteri
    (fun id (l : Ec.loop) ->
      Format.fprintf fmt "  y(loop@@%d, colour %d) = %a@," l.node l.colour Q.pp
        y.loop_w.(id))
    (Ec.loops y.graph);
  Format.fprintf fmt "@]"
