type edge = { u : int; v : int; colour : int }
type loop = { node : int; colour : int }

type dart =
  | To_neighbour of { neighbour : int; edge_id : int; colour : int }
  | Into_loop of { loop_id : int; colour : int }

type columns = {
  edge_u : int array;
  edge_v : int array;
  edge_colour : int array;
  loop_node : int array;
  loop_colour : int array;
}

(* Edges column-wise, edge [j] being [(edge_u.(j), edge_v.(j),
   edge_colour.(j))], and their two ends in the dart table (key: the
   colour, code: the edge id), which is what the hot paths iterate.

   A loop is a semi-edge: one end, one colour. Loops stay out of the
   dart table as one run sorted by (node, colour): node [v]'s loops are
   ids [loop_row.(v) .. loop_row.(v + 1) - 1], in ascending colour, and
   a loop costs one word of [loop_colour]. On the adversary's graphs
   loops are most of the ends, so this is most of the memory. Flat int
   arrays hold no pointers for the GC to follow; [edge]/[loop] records
   and dart lists are read off them on demand. *)
type t = {
  n : int;
  edge_u : int array;
  edge_v : int array;
  edge_colour : int array;
  darts : Darts.t;
  loop_row : int array;
  loop_colour : int array;
}

let dart_colour = function
  | To_neighbour { colour; _ } -> colour
  | Into_loop { colour; _ } -> colour

let clash who v c =
  Printf.sprintf "%s: node %d has two darts of colour %d (colouring not proper)"
    who v c

(* The smallest colour that node [v] has both on an edge and on a loop,
   or 0. A node has few edges and many loops, so each edge colour is
   looked up in the loop run. *)
let shared_colour ({ Darts.row; key; _ } : Darts.t) loop_row loop_colour v =
  let lo = loop_row.(v) and hi = loop_row.(v + 1) in
  let d = ref row.(v) and found = ref 0 in
  while !found = 0 && lo < hi && !d < row.(v + 1) do
    if Darts.search loop_colour lo hi key.(!d) >= 0 then found := key.(!d);
    incr d
  done;
  !found

let check_shared who n darts loop_row loop_colour =
  for v = 0 to n - 1 do
    let c = shared_colour darts loop_row loop_colour v in
    if c > 0 then invalid_arg (clash who v c)
  done

(* Loops in (node, colour) order: [loop_row] by counting, then every
   node's run sorted by colour. Columns already in that order are kept
   as they are, so their ids do not move. *)
let loop_run n loop_node loop_colour =
  let l = Array.length loop_node in
  let row = Array.make (n + 1) 0 in
  Array.iter (fun v -> row.(v + 1) <- row.(v + 1) + 1) loop_node;
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let ordered = ref true in
  for j = 1 to l - 1 do
    let a = loop_node.(j - 1) and b = loop_node.(j) in
    if a > b || (a = b && loop_colour.(j - 1) >= loop_colour.(j)) then
      ordered := false
  done;
  let colour =
    if !ordered then loop_colour
    else begin
      let out = Array.make l 0 and next = Array.sub row 0 n in
      for j = 0 to l - 1 do
        let v = loop_node.(j) in
        out.(next.(v)) <- loop_colour.(j);
        next.(v) <- next.(v) + 1
      done;
      for v = 0 to n - 1 do
        let lo = row.(v) and len = row.(v + 1) - row.(v) in
        if len > 1 then begin
          let run = Array.sub out lo len in
          Array.sort Int.compare run;
          Array.blit run 0 out lo len
        end
      done;
      out
    end
  in
  for v = 0 to n - 1 do
    for j = row.(v) + 1 to row.(v + 1) - 1 do
      if colour.(j - 1) = colour.(j) then invalid_arg (clash "Ec.create" v colour.(j))
    done
  done;
  (row, colour)

(* Scatter every edge's two darts into the table, then check that no
   edge shares its colour with a loop at either end. *)
let make n ~edge_u ~edge_v ~edge_colour ~loop_row ~loop_colour =
  let darts =
    Darts.build ~n ~clash:(clash "Ec.create") (fun place ->
        for j = 0 to Array.length edge_u - 1 do
          place edge_u.(j) edge_colour.(j) edge_v.(j) j;
          place edge_v.(j) edge_colour.(j) edge_u.(j) j
        done)
  in
  check_shared "Ec.create" n darts loop_row loop_colour;
  { n; edge_u; edge_v; edge_colour; darts; loop_row; loop_colour }

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
  let loop_row, loop_colour = loop_run n loop_node loop_colour in
  make n ~edge_u ~edge_v ~edge_colour ~loop_row ~loop_colour

let n g = g.n
let num_edges g = Array.length g.edge_u
let num_loops g = Array.length g.loop_colour
let edge_u g = g.edge_u
let edge_v g = g.edge_v
let edge_colour g = g.edge_colour
let loop_row g = g.loop_row
let loop_colour g = g.loop_colour
let edge_darts g = g.darts

(* The node whose run holds loop [id]: the last [v] with
   [loop_row.(v) <= id]. *)
let loop_node g id =
  if id < 0 || id >= num_loops g then invalid_arg "Ec: no such loop";
  let lo = ref 0 and hi = ref (g.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if g.loop_row.(mid) <= id then lo := mid else hi := mid - 1
  done;
  !lo

(* Colours strictly ascending along [lo, hi) of [c], so all of them lie
   in range once the first and the last do. *)
let check_run v (c : int array) lo hi =
  for j = lo + 1 to hi - 1 do
    if c.(j - 1) >= c.(j) then invalid_arg (clash "Ec.splice" v c.(j))
  done;
  if hi > lo then begin
    Darts.check_colour "Ec.splice" c.(lo);
    Darts.check_colour "Ec.splice" c.(hi - 1)
  end

(* The checks [of_columns] makes on its columns, made instead as one
   scan of a finished graph: every far end in range and no edge dart
   back at its own node; every colour in range and strictly ascending
   along its node's edge segment and along its loop run; no colour on
   both an edge and a loop of one node. *)
let check_table n ({ Darts.row; key; other; _ } as darts : Darts.t) loop_row loop_colour =
  for v = 0 to n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let o = other.(d) in
      if o < 0 || o >= n then invalid_arg "Ec.splice: node out of range";
      if o = v then invalid_arg "Ec.splice: self-edge"
    done;
    check_run v key row.(v) row.(v + 1);
    check_run v loop_colour loop_row.(v) loop_row.(v + 1)
  done;
  check_shared "Ec.splice" n darts loop_row loop_colour

(* Copy [src] without index [k] into [dst] at [pos]. *)
let blit_without src k dst pos =
  Darts.blit_ints src 0 dst pos k;
  Darts.blit_ints src (k + 1) dst (pos + k) (Array.length src - k - 1)

(* Where a dart of colour [c] goes in [v]'s segment: before the first
   larger key. *)
let insertion_point ({ Darts.row; key; _ } : Darts.t) v c =
  let d = ref row.(v) in
  while !d < row.(v + 1) && key.(!d) < c do
    incr d
  done;
  !d

(* Every edge dart of [a] and [b] keeps its key and its place in its
   node's segment, and the crossing edge adds one dart at each end: the
   two tables are copied across around those two slots, with only far
   ends (b's shift by [n a]) and codes (b's by [num_edges a]) changed,
   so no segment is re-sorted. The loop run loses [e] and [f] and is
   otherwise the two runs end to end. *)
let splice a ~loop:e b ~loop:f =
  if e < 0 || e >= num_loops a || f < 0 || f >= num_loops b then
    invalid_arg "Ec.splice: no such loop";
  let colour = a.loop_colour.(e) in
  if b.loop_colour.(f) <> colour then
    invalid_arg "Ec.splice: the two loops differ in colour";
  let na = a.n and nb = b.n in
  let n = na + nb in
  let u = loop_node a e and vb = loop_node b f in
  let v = na + vb in
  let ea = num_edges a and eb = num_edges b in
  let crossing = ea + eb in
  let edge_u = Array.make (crossing + 1) u
  and edge_v = Array.make (crossing + 1) v
  and edge_colour = Array.make (crossing + 1) colour in
  Darts.blit_ints a.edge_u 0 edge_u 0 ea;
  Darts.blit_ints a.edge_v 0 edge_v 0 ea;
  Darts.blit_ints a.edge_colour 0 edge_colour 0 ea;
  for j = 0 to eb - 1 do
    edge_u.(ea + j) <- b.edge_u.(j) + na;
    edge_v.(ea + j) <- b.edge_v.(j) + na
  done;
  Darts.blit_ints b.edge_colour 0 edge_colour ea eb;
  let la = num_loops a - 1 and lb = num_loops b - 1 in
  let loop_colour = Array.make (la + lb) 0 in
  blit_without a.loop_colour e loop_colour 0;
  blit_without b.loop_colour f loop_colour la;
  let loop_row = Array.make (n + 1) 0 in
  for x = 0 to na do
    loop_row.(x) <- (if x > u then a.loop_row.(x) - 1 else a.loop_row.(x))
  done;
  for x = 0 to nb do
    loop_row.(na + x) <- la + (if x > vb then b.loop_row.(x) - 1 else b.loop_row.(x))
  done;
  let ta = a.darts and tb = b.darts in
  let ma = ta.row.(na) and mb = tb.row.(nb) in
  let pa = insertion_point ta u colour and pb = insertion_point tb vb colour in
  let row = Array.make (n + 1) 0 in
  for x = 0 to na do
    row.(x) <- (if x > u then ta.row.(x) + 1 else ta.row.(x))
  done;
  let ob = ma + 1 in
  for x = 0 to nb do
    row.(na + x) <- ob + (if x > vb then tb.row.(x) + 1 else tb.row.(x))
  done;
  let m = ma + mb + 2 in
  let key = Array.make m colour
  and other = Array.make m 0
  and code = Array.make m crossing in
  let around src dst = (* a's darts, leaving slot [pa] to the crossing edge *)
    Darts.blit_ints src 0 dst 0 pa;
    Darts.blit_ints src pa dst (pa + 1) (ma - pa)
  in
  around ta.key key;
  around ta.other other;
  around ta.code code;
  other.(pa) <- v;
  Darts.blit_ints tb.key 0 key ob pb;
  Darts.blit_ints tb.key pb key (ob + pb + 1) (mb - pb);
  for d = 0 to pb - 1 do
    other.(ob + d) <- tb.other.(d) + na;
    code.(ob + d) <- tb.code.(d) + ea
  done;
  for d = pb to mb - 1 do
    other.(ob + d + 1) <- tb.other.(d) + na;
    code.(ob + d + 1) <- tb.code.(d) + ea
  done;
  other.(ob + pb) <- u;
  let darts = { Darts.row; key; other; code } in
  check_table n darts loop_row loop_colour;
  { n; edge_u; edge_v; edge_colour; darts; loop_row; loop_colour }

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

let columns g =
  let loop_node = Array.make (num_loops g) 0 in
  for v = 0 to g.n - 1 do
    Array.fill loop_node g.loop_row.(v) (g.loop_row.(v + 1) - g.loop_row.(v)) v
  done;
  {
    edge_u = g.edge_u;
    edge_v = g.edge_v;
    edge_colour = g.edge_colour;
    loop_node;
    loop_colour = g.loop_colour;
  }

let edge g id = { u = g.edge_u.(id); v = g.edge_v.(id); colour = g.edge_colour.(id) }
let loop g id = { node = loop_node g id; colour = g.loop_colour.(id) }
let edges g = List.init (num_edges g) (edge g)
let loops g = List.init (num_loops g) (loop g)

(* Edge darts and loops merged by colour, built from the top down. *)
let darts g v =
  let { Darts.row; key; other; code } = g.darts in
  let lo = row.(v) and llo = g.loop_row.(v) in
  let rec go d j acc =
    if d < lo && j < llo then acc
    else if j < llo || (d >= lo && key.(d) > g.loop_colour.(j)) then
      go (d - 1) j
        (To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = key.(d) }
        :: acc)
    else go d (j - 1) (Into_loop { loop_id = j; colour = g.loop_colour.(j) } :: acc)
  in
  go (row.(v + 1) - 1) (g.loop_row.(v + 1) - 1) []

let dart_by_colour g v c =
  let { Darts.other; code; _ } = g.darts in
  let d = Darts.find g.darts v c in
  if d >= 0 then Some (To_neighbour { neighbour = other.(d); edge_id = code.(d); colour = c })
  else begin
    let j = Darts.search g.loop_colour g.loop_row.(v) g.loop_row.(v + 1) c in
    if j >= 0 then Some (Into_loop { loop_id = j; colour = c }) else None
  end

let degree g v =
  g.darts.row.(v + 1) - g.darts.row.(v) + g.loop_row.(v + 1) - g.loop_row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  Array.fold_left Stdlib.max (Array.fold_left Stdlib.max 0 g.darts.key) g.loop_colour

let loops_at g v =
  let lo = g.loop_row.(v) in
  List.init (g.loop_row.(v + 1) - lo) (fun i -> lo + i)

let min_loops g =
  let best = ref (if g.n = 0 then 0 else max_int) in
  for v = 0 to g.n - 1 do
    best := Stdlib.min !best (g.loop_row.(v + 1) - g.loop_row.(v))
  done;
  !best

(* Union-find with path halving: a forest grows by one edge per union,
   so [n - 1] edges and no cycle make a spanning tree. *)
let is_tree_plus_loops g =
  num_edges g = g.n - 1
  &&
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
  for j = 0 to num_edges g - 1 do
    let a = find g.edge_u.(j) and b = find g.edge_v.(j) in
    if a = b then acyclic := false else parent.(a) <- b
  done;
  !acyclic

(* The edges and their table stay shared; the run closes over the gap. *)
let remove_loop g id =
  if id < 0 || id >= num_loops g then invalid_arg "Ec.remove_loop";
  let v = loop_node g id in
  let loop_colour = Array.make (num_loops g - 1) 0 in
  blit_without g.loop_colour id loop_colour 0;
  let loop_row = Array.mapi (fun x r -> if x > v then r - 1 else r) g.loop_row in
  { g with loop_row; loop_colour }

let disjoint_union a b =
  let shifted x = Array.map (fun v -> v + a.n) x in
  let la = num_loops a in
  make (a.n + b.n)
    ~edge_u:(Array.append a.edge_u (shifted b.edge_u))
    ~edge_v:(Array.append a.edge_v (shifted b.edge_v))
    ~edge_colour:(Array.append a.edge_colour b.edge_colour)
    ~loop_row:
      (Array.append a.loop_row
         (Array.init b.n (fun x -> la + b.loop_row.(x + 1))))
    ~loop_colour:(Array.append a.loop_colour b.loop_colour)

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
  if num_loops g > 0 then invalid_arg "Ec.to_simple: graph has loops";
  Ld_graph.Graph.create g.n
    (List.map (fun e -> (Stdlib.min e.u e.v, Stdlib.max e.u e.v)) (edges g))

(* Item by item under the same id, an edge's endpoints in either order.
   Top-level rather than local closures, so a comparison allocates
   nothing, and the first difference stops the scan. *)
let rec same_edges a b j =
  j < 0
  || a.edge_colour.(j) = b.edge_colour.(j)
     && (let u = a.edge_u.(j) and v = a.edge_v.(j) in
         let u' = b.edge_u.(j) and v' = b.edge_v.(j) in
         (u = u' && v = v') || (u = v' && v = u'))
     && same_edges a b (j - 1)

let rec same_ints (x : int array) y j = j < 0 || (x.(j) = y.(j) && same_ints x y (j - 1))

(* Loops are equal under the same ids iff the runs are. *)
let equal a b =
  a == b
  || a.n = b.n
     && num_edges a = num_edges b
     && num_loops a = num_loops b
     && same_edges a b (num_edges a - 1)
     && same_ints a.loop_row b.loop_row a.n
     && same_ints a.loop_colour b.loop_colour (num_loops a - 1)

let pp fmt g =
  Format.fprintf fmt "@[<v>ec-graph n=%d@," g.n;
  List.iter
    (fun e -> Format.fprintf fmt "  edge %d-%d colour %d@," e.u e.v e.colour)
    (edges g);
  for v = 0 to g.n - 1 do
    for j = g.loop_row.(v) to g.loop_row.(v + 1) - 1 do
      Format.fprintf fmt "  loop @@%d colour %d@," v g.loop_colour.(j)
    done
  done;
  Format.fprintf fmt "@]"
