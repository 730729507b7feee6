type edge = { u : int; v : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | To_neighbour of { neighbour : int; edge_id : int; colour : int }
  | Into_loop of { loop_id : int; colour : int }

(* Edges and loops, column-wise: edge [j] is
   [(edge_u.(j), edge_v.(j), edge_colour.(j))], loop [j] is
   [(loop_node.(j), loop_colour.(j))]. Flat int arrays hold no pointers
   for the GC to follow, and the construction paths (unfold, mix, the
   store codec) fill them with blits and maps; the [edge]/[loop] records
   of the interface are read off them on demand. *)
type columns = {
  edge_u : int array;
  edge_v : int array;
  edge_colour : int array;
  loop_node : int array;
  loop_colour : int array;
}

(* The dart table is what every hot path iterates; dart lists are never
   stored: [darts] reads them off it. *)
type t = { n : int; n_edges : int; n_loops : int; cols : columns; csr : Darts.t }

let dart_colour = function
  | To_neighbour { colour; _ } -> colour
  | Into_loop { colour; _ } -> colour

(* Scatter every edge's two darts and every loop's one dart into the
   table; the key of a dart is its colour. *)
let build n cols =
  let { edge_u; edge_v; edge_colour; loop_node; loop_colour } = cols in
  let n_edges = Array.length edge_u and n_loops = Array.length loop_node in
  let clash v c =
    Printf.sprintf
      "Ec.create: node %d has two darts of colour %d (colouring not proper)" v c
  in
  let csr =
    Darts.build ~n ~clash (fun place ->
        for j = 0 to n_edges - 1 do
          place edge_u.(j) edge_colour.(j) edge_v.(j) j;
          place edge_v.(j) edge_colour.(j) edge_u.(j) j
        done;
        for j = 0 to n_loops - 1 do
          place loop_node.(j) loop_colour.(j) loop_node.(j) (-j - 1)
        done)
  in
  { n; n_edges; n_loops; cols; csr }

let of_columns ~n cols =
  let { edge_u; edge_v; edge_colour; loop_node; loop_colour } = cols in
  if n < 0 then invalid_arg "Ec.create: negative n";
  if
    Array.length edge_v <> Array.length edge_u
    || Array.length edge_colour <> Array.length edge_u
    || Array.length loop_colour <> Array.length loop_node
  then invalid_arg "Ec.of_columns: column lengths differ";
  let check_node v = if v < 0 || v >= n then invalid_arg "Ec.create: node out of range" in
  let check_colour = Darts.check_colour "Ec.create" in
  for j = 0 to Array.length edge_u - 1 do
    check_node edge_u.(j);
    check_node edge_v.(j);
    check_colour edge_colour.(j);
    if edge_u.(j) = edge_v.(j) then invalid_arg "Ec.create: self-edge; use ~loops"
  done;
  for j = 0 to Array.length loop_node - 1 do
    check_node loop_node.(j);
    check_colour loop_colour.(j)
  done;
  build n cols

let create ~n ~edges ~loops =
  let edges = Array.of_list edges and loops = Array.of_list loops in
  of_columns ~n
    {
      edge_u = Array.map (fun (u, _, _) -> u) edges;
      edge_v = Array.map (fun (_, v, _) -> v) edges;
      edge_colour = Array.map (fun (_, _, c) -> c) edges;
      loop_node = Array.map fst loops;
      loop_colour = Array.map snd loops;
    }

let n g = g.n
let num_edges g = g.n_edges
let num_loops g = g.n_loops
let columns g = g.cols

let edge g id =
  let c = columns g in
  { u = c.edge_u.(id); v = c.edge_v.(id); colour = c.edge_colour.(id) }

let loop g id =
  let c = columns g in
  { node = c.loop_node.(id); colour = c.loop_colour.(id) }

let edges g = List.init g.n_edges (edge g)
let loops g = List.init g.n_loops (loop g)
let csr g = g.csr

(* Reconstruct the dart at CSR index [d]. *)
let dart_at g d =
  let { Darts.key; other; code; _ } = g.csr in
  if code.(d) >= 0 then
    To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = key.(d) }
  else Into_loop { loop_id = -code.(d) - 1; colour = key.(d) }
  [@@inline]

let darts g v =
  let lo = g.csr.row.(v) in
  List.init (g.csr.row.(v + 1) - lo) (fun i -> dart_at g (lo + i))

let dart_by_colour g v c =
  let d = Darts.find g.csr v c in
  if d < 0 then None else Some (dart_at g d)

let degree g v = g.csr.row.(v + 1) - g.csr.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  (* Every edge and loop contributes at least one dart, so the key
     array covers all colours in use. *)
  Array.fold_left Stdlib.max 0 g.csr.key

let loops_at g v =
  let { Darts.row; code; _ } = g.csr in
  let acc = ref [] in
  for d = row.(v + 1) - 1 downto row.(v) do
    if code.(d) < 0 then acc := (-code.(d) - 1) :: !acc
  done;
  !acc

let min_loops g =
  if g.n = 0 then 0
  else begin
    let { Darts.row; code; _ } = g.csr in
    let best = ref max_int in
    for v = 0 to g.n - 1 do
      let count = ref 0 in
      for d = row.(v) to row.(v + 1) - 1 do
        if code.(d) < 0 then incr count
      done;
      best := Stdlib.min !best !count
    done;
    !best
  end

(* Union-find with path halving: a forest grows by one edge per union,
   so [n - 1] edges and no cycle make a spanning tree. *)
let is_tree_plus_loops g =
  g.n_edges = g.n - 1
  &&
  let c = columns g in
  let parent = Array.init g.n Fun.id in
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      parent.(v) <- parent.(p);
      find parent.(v)
    end
  in
  let acyclic = ref true in
  for j = 0 to g.n_edges - 1 do
    let a = find c.edge_u.(j) and b = find c.edge_v.(j) in
    if a = b then acyclic := false else parent.(a) <- b
  done;
  !acyclic

let remove_loop g id =
  if id < 0 || id >= g.n_loops then invalid_arg "Ec.remove_loop";
  let c = columns g in
  let drop a = Array.init (g.n_loops - 1) (fun i -> if i < id then a.(i) else a.(i + 1)) in
  build g.n { c with loop_node = drop c.loop_node; loop_colour = drop c.loop_colour }

let disjoint_union a b =
  let ca = columns a and cb = columns b in
  let shifted x = Array.map (fun v -> v + a.n) x in
  build (a.n + b.n)
    {
      edge_u = Array.append ca.edge_u (shifted cb.edge_u);
      edge_v = Array.append ca.edge_v (shifted cb.edge_v);
      edge_colour = Array.append ca.edge_colour cb.edge_colour;
      loop_node = Array.append ca.loop_node (shifted cb.loop_node);
      loop_colour = Array.append ca.loop_colour cb.loop_colour;
    }

let add_edge g (u, v, colour) =
  if u = v then invalid_arg "Ec.add_edge: self-edge";
  let c = columns g in
  of_columns ~n:g.n
    {
      c with
      edge_u = Array.append c.edge_u [| u |];
      edge_v = Array.append c.edge_v [| v |];
      edge_colour = Array.append c.edge_colour [| colour |];
    }

let of_simple sg ~colour =
  let module G = Ld_graph.Graph in
  let edges =
    List.map (fun (u, v) -> (u, v, colour (u, v))) (G.edges sg)
  in
  create ~n:(G.n sg) ~edges ~loops:[]

let to_simple g =
  if g.n_loops > 0 then invalid_arg "Ec.to_simple: graph has loops";
  Ld_graph.Graph.create g.n
    (List.map (fun e -> (Stdlib.min e.u e.v, Stdlib.max e.u e.v)) (edges g))

let canonical_edge e =
  (Stdlib.min e.u e.v, Stdlib.max e.u e.v, e.colour)

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
  a == b
  || a.n = b.n
  && List.equal
       (fun x y -> triple_compare x y = 0)
       (List.sort triple_compare (List.map canonical_edge (edges a)))
       (List.sort triple_compare (List.map canonical_edge (edges b)))
  && List.equal
       (fun x y -> pair_compare x y = 0)
       (List.sort pair_compare (List.map (fun l -> (l.node, l.colour)) (loops a)))
       (List.sort pair_compare (List.map (fun l -> (l.node, l.colour)) (loops b)))

let pp fmt g =
  Format.fprintf fmt "@[<v>ec-graph n=%d@," g.n;
  List.iter
    (fun e -> Format.fprintf fmt "  edge %d-%d colour %d@," e.u e.v e.colour)
    (edges g);
  List.iter
    (fun l -> Format.fprintf fmt "  loop @@%d colour %d@," l.node l.colour)
    (loops g);
  Format.fprintf fmt "@]"
