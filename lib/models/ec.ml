type edge = { u : int; v : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | To_neighbour of { neighbour : int; edge_id : int; colour : int }
  | Into_loop of { loop_id : int; colour : int }

(* Flat CSR dart view, built once per graph (in [build]) and cached in
   the value. Dart [d] of node [v] lives at indices [row.(v) .. row.(v+1)-1],
   in ascending colour order (the same order as the [darts] lists):
   [colour.(d)] is its colour, [other.(d)] the node at the far end (the
   node itself for a loop — the loop-reflection convention), and
   [code.(d)] is the edge id, or [-loop_id - 1] for a loop. The arrays
   must never be mutated by consumers. *)
type csr = {
  row : int array;
  colour : int array;
  other : int array;
  code : int array;
}

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

(* The CSR is the primary representation: it is what every hot path
   iterates, and at mega-scale (10^6..10^7 nodes, built by [of_csr]
   from a streamed [Ld_graph.Csr.t]) it is the only part we can afford
   to materialise eagerly, so there the columns are derived lazily.
   Every other constructor wraps its eager columns in [Lazy.from_val].
   Dart lists are never stored: [darts] reads them off the CSR. *)
type t = {
  n : int;
  n_edges : int;
  n_loops : int;
  cols : columns Lazy.t;
  csr : csr;
}

let dart_colour = function
  | To_neighbour { colour; _ } -> colour
  | Into_loop { colour; _ } -> colour

(* Sort the CSR segment [lo, hi) by colour, moving [other] and [code]
   along. Adversary and runtime segments hold at most Δ darts, where
   insertion sort is fastest; longer ones go through a sorted
   permutation. Colours at a node are distinct in any valid graph, so
   the order is unique and stability does not matter. *)
let sort_segment colour other code lo hi =
  if hi - lo <= 16 then
    for d = lo + 1 to hi - 1 do
      let cd = colour.(d) and od = other.(d) and kd = code.(d) in
      let j = ref d in
      while !j > lo && colour.(!j - 1) > cd do
        colour.(!j) <- colour.(!j - 1);
        other.(!j) <- other.(!j - 1);
        code.(!j) <- code.(!j - 1);
        decr j
      done;
      colour.(!j) <- cd;
      other.(!j) <- od;
      code.(!j) <- kd
    done
  else begin
    let perm = Array.init (hi - lo) (fun i -> lo + i) in
    Array.sort (fun a b -> Int.compare colour.(a) colour.(b)) perm;
    let c = Array.map (fun d -> colour.(d)) perm
    and o = Array.map (fun d -> other.(d)) perm
    and k = Array.map (fun d -> code.(d)) perm in
    Array.blit c 0 colour lo (hi - lo);
    Array.blit o 0 other lo (hi - lo);
    Array.blit k 0 code lo (hi - lo)
  end

(* Colour-sort every node's segment and check properness: the invariant
   every runner and the refinement core relies on. *)
let sort_segments ~who n row colour other code =
  for v = 0 to n - 1 do
    let lo = row.(v) and hi = row.(v + 1) in
    sort_segment colour other code lo hi;
    for d = lo + 1 to hi - 1 do
      if colour.(d - 1) = colour.(d) then
        invalid_arg
          (Printf.sprintf
             "%s: node %d has two darts of colour %d (colouring not proper)" who
             v colour.(d))
    done
  done

(* Array-native construction: count degrees, prefix-sum the rows,
   scatter every edge's two darts and every loop's one dart straight
   into their CSR slots, then colour-sort each segment in place. No
   dart record or list is allocated. *)
let build n cols =
  let { edge_u; edge_v; edge_colour; loop_node; loop_colour } = cols in
  let n_edges = Array.length edge_u and n_loops = Array.length loop_node in
  let row = Array.make (n + 1) 0 in
  for j = 0 to n_edges - 1 do
    row.(edge_u.(j) + 1) <- row.(edge_u.(j) + 1) + 1;
    row.(edge_v.(j) + 1) <- row.(edge_v.(j) + 1) + 1
  done;
  for j = 0 to n_loops - 1 do
    row.(loop_node.(j) + 1) <- row.(loop_node.(j) + 1) + 1
  done;
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let m = row.(n) in
  let colour = Array.make m 0 in
  let other = Array.make m 0 in
  let code = Array.make m 0 in
  let next = Array.sub row 0 n in
  let place v c o k =
    let d = next.(v) in
    next.(v) <- d + 1;
    colour.(d) <- c;
    other.(d) <- o;
    code.(d) <- k
  in
  for j = 0 to n_edges - 1 do
    place edge_u.(j) edge_colour.(j) edge_v.(j) j;
    place edge_v.(j) edge_colour.(j) edge_u.(j) j
  done;
  for j = 0 to n_loops - 1 do
    place loop_node.(j) loop_colour.(j) loop_node.(j) (-j - 1)
  done;
  sort_segments ~who:"Ec.create" n row colour other code;
  { n; n_edges; n_loops; cols = Lazy.from_val cols; csr = { row; colour; other; code } }

let of_columns ~n cols =
  let { edge_u; edge_v; edge_colour; loop_node; loop_colour } = cols in
  if n < 0 then invalid_arg "Ec.create: negative n";
  if
    Array.length edge_v <> Array.length edge_u
    || Array.length edge_colour <> Array.length edge_u
    || Array.length loop_colour <> Array.length loop_node
  then invalid_arg "Ec.of_columns: column lengths differ";
  let check_node v = if v < 0 || v >= n then invalid_arg "Ec.create: node out of range" in
  let check_colour c = if c < 1 then invalid_arg "Ec.create: colours must be >= 1" in
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
let columns g = Lazy.force g.cols

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
  let { colour; other; code; _ } = g.csr in
  if code.(d) >= 0 then
    To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = colour.(d) }
  else Into_loop { loop_id = -code.(d) - 1; colour = colour.(d) }
  [@@inline]

let darts g v =
  let lo = g.csr.row.(v) in
  List.init (g.csr.row.(v + 1) - lo) (fun i -> dart_at g (lo + i))

let dart_by_colour g v c =
  (* Darts of a node are sorted by colour: binary search the segment. *)
  let { row; colour; _ } = g.csr in
  let lo = ref row.(v) and hi = ref (row.(v + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = colour.(mid) in
    if cm = c then found := mid
    else if cm < c then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some (dart_at g !found)

let degree g v = g.csr.row.(v + 1) - g.csr.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  (* Every edge and loop contributes at least one dart, so the CSR
     colour array covers all colours in use — no need to force the
     record views. *)
  let c = ref 0 in
  Array.iter (fun dc -> c := Stdlib.max !c dc) g.csr.colour;
  !c

let loops_at g v =
  let { row; code; _ } = g.csr in
  let acc = ref [] in
  for d = row.(v + 1) - 1 downto row.(v) do
    if code.(d) < 0 then acc := (-code.(d) - 1) :: !acc
  done;
  !acc

let min_loops g =
  if g.n = 0 then 0
  else begin
    let { row; code; _ } = g.csr in
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
  build g.n
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

(* ---------- streaming constructor ----------

   Lift a streamed simple-graph CSR ([Ld_graph.Csr.t], endpoint-sorted
   segments, proper colouring) into the EC model without building any
   edge records, tuple lists, or dart lists: only the four CSR arrays
   are materialised. Edge ids are assigned in sorted-(u, v) order —
   the same ids [of_simple] would produce via [Graph.edges] — and each
   segment is permuted to ascending colour order, which is the
   invariant every runner and the refinement core relies on. The
   record views stay lazy; forcing them on a 10^7-node graph is a
   programming error the memory profile will surface quickly. *)
let of_csr (c : Ld_graph.Csr.t) =
  let n = c.Ld_graph.Csr.n in
  let srow = c.Ld_graph.Csr.row in
  let send = c.Ld_graph.Csr.endpoint in
  let scol = c.Ld_graph.Csr.colour in
  let nd = srow.(n) in
  let back = Ld_graph.Csr.back c in
  (* Pass 1: edge ids in [Graph.edges] order — ascending [u] but
     {e descending} [v] within each block (its downto-and-cons
     construction), which is the id order [of_simple] assigns. Hence
     the inner walk runs each segment in reverse, taking the darts
     with [v < w] (each edge's first occurrence). *)
  let code = Array.make nd 0 in
  let next_id = ref 0 in
  for v = 0 to n - 1 do
    for d = srow.(v + 1) - 1 downto srow.(v) do
      let w = send.(d) in
      if v < w then begin
        code.(d) <- !next_id;
        code.(srow.(w) + back.(d)) <- !next_id;
        incr next_id
      end
    done
  done;
  (* Pass 2: permute every segment to ascending colour order, checking
     properness. *)
  let colour = Array.sub scol 0 nd in
  let other = Array.sub send 0 nd in
  for d = 0 to nd - 1 do
    if colour.(d) < 1 then invalid_arg "Ec.of_csr: colours must be >= 1"
  done;
  sort_segments ~who:"Ec.of_csr" n srow colour other code;
  let n_edges = c.Ld_graph.Csr.m in
  let csr = { row = srow; colour; other; code } in
  let cols =
    lazy
      (let edge_u = Array.make n_edges 0 in
       let edge_v = Array.make n_edges 0 in
       let edge_colour = Array.make n_edges 0 in
       for v = 0 to n - 1 do
         for d = srow.(v) to srow.(v + 1) - 1 do
           if v < other.(d) then begin
             edge_u.(code.(d)) <- v;
             edge_v.(code.(d)) <- other.(d);
             edge_colour.(code.(d)) <- colour.(d)
           end
         done
       done;
       { edge_u; edge_v; edge_colour; loop_node = [||]; loop_colour = [||] })
  in
  { n; n_edges; n_loops = 0; cols; csr }
