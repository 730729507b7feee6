module G = Ld_graph.Graph

let greedy g =
  let { Ld_graph.Csr.colour; _ } = Ld_graph.Csr.greedy g in
  fun (u, v) ->
    let d = G.dart g u v in
    if d < 0 then invalid_arg "Edge_colouring.greedy: not an edge" else colour.(d)

let num_colours g colour =
  List.sort_uniq Int.compare (List.map colour (G.edges g)) |> List.length

let is_proper g colour =
  let ok = ref true in
  for v = 0 to G.n g - 1 do
    let cs =
      List.map (fun w -> colour (Stdlib.min v w, Stdlib.max v w)) (G.neighbours g v)
    in
    if List.length (List.sort_uniq Int.compare cs) <> List.length cs then ok := false
  done;
  !ok

let ec_of_simple g = Ec.of_simple g ~colour:(greedy g)
