(* A properly edge-coloured simple graph: [Graph.t]'s segments plus
   the edge colour and the reverse of every dart. The colouring is
   proper: colours within a segment are pairwise distinct (but *not*
   sorted — segments are endpoint-sorted, which is the order the packed
   runtime's port numbers follow). The reverse darts depend only on the
   graph, so whoever builds it fills them once and every run reads
   them. *)

type t = {
  n : int;
  row : int array;
  endpoint : int array;
  colour : int array;
  mirror : int array;
  m : int;
}

let to_graph { n; row; endpoint; m; _ } = { Graph.n; row; endpoint; m }
let n g = g.n
let m g = g.m
let max_degree g = Graph.max_degree (to_graph g)

let max_colour g =
  let best = ref 0 in
  Array.iter (fun c -> if c > best.contents then best := c) g.colour;
  !best

let mirror g = g.mirror

(* Edges in [Graph.edges] order: ascending [u], then [u]'s larger
   neighbours from the end of its segment down. Each takes the smallest
   colour free at both ends, written to both darts. Colours 1..62 live
   in a per-node bitmask; a colour past 62 (only when Δ > 31 forces
   one) is looked up among the node's coloured darts. *)
let greedy (g : Graph.t) =
  let { Graph.n; row; endpoint; m } = g in
  let mirror = Graph.mirror g in
  let colour = Array.make (Array.length endpoint) 0 in
  let mask = Array.make n 0 in
  let used v c =
    if c <= 62 then mask.(v) land (1 lsl (c - 1)) <> 0
    else begin
      let found = ref false in
      for d = row.(v) to row.(v + 1) - 1 do
        if colour.(d) = c then found := true
      done;
      !found
    end
  in
  let mark v c = if c <= 62 then mask.(v) <- mask.(v) lor (1 lsl (c - 1)) in
  for u = 0 to n - 1 do
    let d = ref (row.(u + 1) - 1) in
    while !d >= row.(u) && endpoint.(!d) > u do
      let v = endpoint.(!d) in
      let c = ref 1 in
      while used u !c || used v !c do
        incr c
      done;
      mark u !c;
      mark v !c;
      colour.(!d) <- !c;
      colour.(mirror.(!d)) <- !c;
      decr d
    done
  done;
  { n; row; endpoint; colour; mirror; m }

let validate g =
  let { n; row; endpoint; colour; mirror; m } = g in
  if Array.length row <> n + 1 then invalid_arg "Csr.validate: row length";
  if row.(0) <> 0 then invalid_arg "Csr.validate: row.(0)";
  for v = 0 to n - 1 do
    if row.(v + 1) < row.(v) then invalid_arg "Csr.validate: row not monotone"
  done;
  let nd = row.(n) in
  if
    Array.length endpoint <> nd
    || Array.length colour <> nd
    || Array.length mirror <> nd
  then invalid_arg "Csr.validate: dart array length";
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
  (* The stored mirror is an involution taking each dart of [v] to a
     dart pointing back at [v], of the same colour. Applied to both
     darts, that also puts [mirror.(d)] in [endpoint.(d)]'s segment, so
     every edge is symmetric and the mirror is the one [Graph.mirror]
     computes. *)
  for v = 0 to n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let d' = mirror.(d) in
      if d' < 0 || d' >= nd || mirror.(d') <> d || endpoint.(d') <> v then
        invalid_arg "Csr.validate: mirror";
      if colour.(d') <> colour.(d) then
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
