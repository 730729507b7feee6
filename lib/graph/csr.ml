(* Flat CSR representation of a properly edge-coloured simple graph.

   This is the streaming-generation target: mega-scale instances are
   built directly into these arrays (see [Generators.stream_*]) without
   ever materialising adjacency lists, edge lists, or boxed records.
   Dart [d] of node [v] lives at [row.(v) .. row.(v+1) - 1] with the
   far endpoint in [endpoint.(d)] (strictly ascending within a segment,
   mirroring [Graph.neighbours]'s sorted order) and the edge colour in
   [colour.(d)]. The colouring is proper: colours within a segment are
   pairwise distinct (but *not* sorted — segments are endpoint-sorted,
   which is the order the packed runtime's port numbers follow). *)

type t = {
  n : int;
  row : int array;
  endpoint : int array;
  colour : int array;
  m : int;
}

let n g = g.n
let m g = g.m
let degree g v = g.row.(v + 1) - g.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let max_colour g =
  let best = ref 0 in
  Array.iter (fun c -> if c > best.contents then best := c) g.colour;
  !best

(* Port of [w] as seen from [v]: index [q] such that
   [endpoint.(row.(w) + q) = v]. Segments are endpoint-sorted, so a
   binary search per dart suffices; the result is the [back] array the
   port-numbering executors use to route a message from dart (v, p) to
   the receive slot of the far endpoint. *)
let back g =
  let { row; endpoint; _ } = g in
  let nd = row.(g.n) in
  let back = Array.make nd 0 in
  for v = 0 to g.n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let w = endpoint.(d) in
      let lo = ref row.(w) and hi = ref (row.(w + 1) - 1) in
      let found = ref (-1) in
      while !found < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let e = endpoint.(mid) in
        if e = v then found := mid
        else if e < v then lo := mid + 1
        else hi := mid - 1
      done;
      if !found < 0 then invalid_arg "Csr.back: asymmetric adjacency";
      back.(d) <- !found - row.(w)
    done
  done;
  back

let validate g =
  let { n; row; endpoint; colour; m } = g in
  if Array.length row <> n + 1 then invalid_arg "Csr.validate: row length";
  if row.(0) <> 0 then invalid_arg "Csr.validate: row.(0)";
  for v = 0 to n - 1 do
    if row.(v + 1) < row.(v) then invalid_arg "Csr.validate: row not monotone"
  done;
  let nd = row.(n) in
  if Array.length endpoint <> nd || Array.length colour <> nd then
    invalid_arg "Csr.validate: dart array length";
  if m * 2 <> nd then invalid_arg "Csr.validate: m";
  for v = 0 to n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let w = endpoint.(d) in
      if w < 0 || w >= n || w = v then invalid_arg "Csr.validate: endpoint";
      if d > row.(v) && endpoint.(d - 1) >= w then
        invalid_arg "Csr.validate: segment not strictly ascending";
      if colour.(d) < 1 then invalid_arg "Csr.validate: colour < 1";
      (* properness within the segment *)
      for d' = row.(v) to d - 1 do
        if colour.(d') = colour.(d) then
          invalid_arg "Csr.validate: colouring not proper"
      done
    done
  done;
  (* symmetry with matching colours *)
  let bk = back g in
  for v = 0 to n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let w = endpoint.(d) in
      let d' = row.(w) + bk.(d) in
      if endpoint.(d') <> v || colour.(d') <> colour.(d) then
        invalid_arg "Csr.validate: asymmetric edge"
    done
  done

let int_array_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
  !ok

let equal a b =
  a.n = b.n && a.m = b.m
  && int_array_equal a.row b.row
  && int_array_equal a.endpoint b.endpoint
  && int_array_equal a.colour b.colour

(* Greedy proper edge colouring over edges sorted ascending by packed
   key [u * n + v] (u < v) — exactly the order [Graph.edges] yields and
   exactly the smallest-free-colour rule of [Edge_colouring.greedy], so
   a streamed CSR carries the same colours as the legacy
   list-of-tuples path (differentially tested in test_graph.ml).
   Colours 1..62 live in a per-node bitmask; the (rare, only when
   Δ > 31 forces colours past 62) overflow goes to a spill list. *)
let greedy_colour_sorted_edges ~n ~ne ~packed ~out_colour =
  let used = Array.make n 0 in
  let spill : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let mem v c =
    if c <= 62 then used.(v) land (1 lsl (c - 1)) <> 0
    else
      match Hashtbl.find_opt spill v with
      | None -> false
      | Some cs -> List.mem c cs
  in
  let mark v c =
    if c <= 62 then used.(v) <- used.(v) lor (1 lsl (c - 1))
    else
      Hashtbl.replace spill v
        (c :: (match Hashtbl.find_opt spill v with None -> [] | Some cs -> cs))
  in
  (* [Edge_colouring.greedy] consumes [Graph.edges], whose
     downto-and-cons construction yields ascending [u] but
     {e descending} [v] within each [u] block — so to produce the very
     same colours we walk each equal-[u] run of the sorted array in
     reverse. *)
  let i = ref 0 in
  while !i < ne do
    let u = packed.(!i) / n in
    let j = ref !i in
    while !j < ne && packed.(!j) / n = u do
      incr j
    done;
    for k = !j - 1 downto !i do
      let v = packed.(k) mod n in
      let c = ref 1 in
      while mem u !c || mem v !c do
        incr c
      done;
      mark u !c;
      mark v !c;
      out_colour.(k) <- !c
    done;
    i := !j
  done

(* Assemble a CSR from [ne] accepted edges packed as [u * n + v]
   (u < v, arbitrary order; sorted in place) and the per-node degree
   array. Single pass: sort, colour greedily in sorted order, scatter
   both darts of each edge through per-node write cursors. Sorted edge
   order fills every segment in ascending-endpoint order. *)
let of_packed_edges ~n ~deg ~packed ~ne =
  let es = Array.sub packed 0 ne in
  Array.sort Int.compare es;
  let ecol = Array.make (Stdlib.max 1 ne) 0 in
  greedy_colour_sorted_edges ~n ~ne ~packed:es ~out_colour:ecol;
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + deg.(v)
  done;
  let nd = row.(n) in
  let endpoint = Array.make (Stdlib.max 1 nd) 0 in
  let colour = Array.make (Stdlib.max 1 nd) 0 in
  let cur = Array.sub row 0 n in
  for i = 0 to ne - 1 do
    let u = es.(i) / n and v = es.(i) mod n in
    let c = ecol.(i) in
    endpoint.(cur.(u)) <- v;
    colour.(cur.(u)) <- c;
    cur.(u) <- cur.(u) + 1;
    endpoint.(cur.(v)) <- u;
    colour.(cur.(v)) <- c;
    cur.(v) <- cur.(v) + 1
  done;
  let endpoint = if nd = 0 then [||] else endpoint in
  let colour = if nd = 0 then [||] else colour in
  { n; row; endpoint; colour; m = ne }

let of_graph g ~colour:col =
  let n = Graph.n g in
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + Graph.degree g v
  done;
  let nd = row.(n) in
  let endpoint = Array.make (Stdlib.max 1 nd) 0 in
  let colour = Array.make (Stdlib.max 1 nd) 0 in
  for v = 0 to n - 1 do
    let d = ref row.(v) in
    List.iter
      (fun w ->
        endpoint.(!d) <- w;
        colour.(!d) <- col (Stdlib.min v w, Stdlib.max v w);
        incr d)
      (Graph.neighbours g v)
  done;
  let endpoint = if nd = 0 then [||] else endpoint in
  let colour = if nd = 0 then [||] else colour in
  { n; row; endpoint; colour; m = Graph.m g }

let to_graph g =
  let es = ref [] in
  for v = g.n - 1 downto 0 do
    for d = g.row.(v + 1) - 1 downto g.row.(v) do
      let w = g.endpoint.(d) in
      if v < w then es := (v, w) :: !es
    done
  done;
  Graph.create g.n !es

let pp fmt g =
  Format.fprintf fmt "@[csr(n=%d, m=%d)@]" g.n g.m
