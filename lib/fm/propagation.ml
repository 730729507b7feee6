module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Obs = Ld_obs.Obs

let c_walks = Obs.Counter.make "fm.prop.walks"
let c_steps = Obs.Counter.make "fm.prop.steps"
let c_loops_found = Obs.Counter.make "fm.prop.loops_found"

let differing_darts y y' v =
  if not (Ec.equal (Fm.graph y) (Fm.graph y')) then
    invalid_arg "Propagation.differing_darts: matchings on different graphs";
  List.filter
    (fun d -> not (Q.equal (Fm.dart_weight y d) (Fm.dart_weight y' d)))
    (Ec.darts (Fm.graph y) v)

let holds_at ~y ~y' v =
  if Fm.is_saturated y v && Fm.is_saturated y' v then
    match differing_darts y y' v with
    | [] -> true
    | [ _ ] -> false
    | _ :: _ :: _ -> true
  else true

type step = { node : int; via : Ec.dart }

type walk_outcome =
  | Loop_found of { node : int; loop_id : int; trace : step list }
  | Stuck of { node : int; trace : step list }

(* We stand at [node] knowing that y and y' disagree on its dart of
   colour [excluded]; by Fact 3 (both matchings saturate every node on
   the graphs where this walk is used) there must be a second differing
   dart. A differing loop ends the walk; otherwise we cross the
   differing edge and repeat with that edge's colour excluded — never
   backtracking, so on a tree-plus-loops graph the walk terminates.

   The candidate scan reads the node's edge segment and loop run: the
   first differing loop in colour order wins, else the first differing
   edge. *)
let walk ~y ~y' ~start ~first =
  Obs.Counter.incr c_walks;
  Obs.with_span "fm.prop.walk" @@ fun () ->
  let graph = Fm.graph y in
  let { Ld_models.Darts.row; key; other; code } = Ec.edge_darts graph in
  let loop_row = Ec.loop_row graph and loop_colour = Ec.loop_colour graph in
  let differs d = not (Q.equal (Fm.dart_weight y d) (Fm.dart_weight y' d)) in
  if not (differs first) then
    invalid_arg "Propagation.walk: initial dart does not differ";
  let edge_w = Fm.edge_weights y and edge_w' = Fm.edge_weights y' in
  let loop_w = Fm.loop_weights y and loop_w' = Fm.loop_weights y' in
  let bound = (2 * Ec.n graph) + 2 in
  let rec go node excluded depth trace =
    if depth > bound then
      failwith "Propagation.walk: no termination (graph is not a tree plus loops?)";
    let loop = ref (-1) and edge = ref (-1) in
    for j = loop_row.(node) to loop_row.(node + 1) - 1 do
      if !loop < 0 && loop_colour.(j) <> excluded && not (Q.equal loop_w.(j) loop_w'.(j))
      then loop := j
    done;
    if !loop < 0 then
      for d = row.(node) to row.(node + 1) - 1 do
        if
          !edge < 0 && key.(d) <> excluded
          && not (Q.equal edge_w.(code.(d)) edge_w'.(code.(d)))
        then edge := d
      done;
    if !loop >= 0 then begin
      let loop_id = !loop in
      let via = Ec.Into_loop { loop_id; colour = loop_colour.(loop_id) } in
      Obs.Counter.incr c_loops_found;
      Loop_found { node; loop_id; trace = List.rev ({ node; via } :: trace) }
    end
    else if !edge >= 0 then begin
      let d = !edge in
      let via =
        Ec.To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = key.(d) }
      in
      Obs.Counter.incr c_steps;
      go other.(d) key.(d) (depth + 1) ({ node; via } :: trace)
    end
    else Stuck { node; trace = List.rev trace }
  in
  go start (Ec.dart_colour first) 1 [ { node = start; via = first } ]
