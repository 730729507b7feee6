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

   The candidate scan iterates the graph's CSR dart view: a differing
   loop (in colour order) wins, else the first differing edge. *)
let walk ~y ~y' ~start ~first =
  Obs.Counter.incr c_walks;
  Obs.with_span "fm.prop.walk" @@ fun () ->
  let graph = Fm.graph y in
  let { Ld_models.Darts.row; key = colour; code; _ } = Ec.csr graph in
  let code_differs c =
    not (Q.equal (Fm.code_weight y c) (Fm.code_weight y' c))
  in
  let differs d = not (Q.equal (Fm.dart_weight y d) (Fm.dart_weight y' d)) in
  if not (differs first) then
    invalid_arg "Propagation.walk: initial dart does not differ";
  let bound = (2 * Ec.n graph) + 2 in
  let rec go node excluded depth trace =
    if depth > bound then
      failwith "Propagation.walk: no termination (graph is not a tree plus loops?)";
    let hi = row.(node + 1) in
    let best_loop = ref (-1) and best_edge = ref (-1) in
    for d = row.(node) to hi - 1 do
      if colour.(d) <> excluded && code_differs code.(d) then
        if code.(d) < 0 then (if !best_loop < 0 then best_loop := d)
        else if !best_edge < 0 then best_edge := d
    done;
    if !best_loop >= 0 then begin
      let d = Ec.dart_at graph !best_loop in
      let loop_id = -code.(!best_loop) - 1 in
      Obs.Counter.incr c_loops_found;
      Loop_found { node; loop_id; trace = List.rev ({ node; via = d } :: trace) }
    end
    else if !best_edge >= 0 then begin
      let d = Ec.dart_at graph !best_edge in
      match d with
      | Ec.To_neighbour { neighbour; colour; _ } ->
        Obs.Counter.incr c_steps;
        go neighbour colour (depth + 1) ({ node; via = d } :: trace)
      | Ec.Into_loop _ -> assert false
    end
    else Stuck { node; trace = List.rev trace }
  in
  go start (Ec.dart_colour first) 1 [ { node = start; via = first } ]
