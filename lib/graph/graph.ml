(* Compressed sparse rows: node [v]'s darts are [row.(v) .. row.(v+1) - 1]
   and [endpoint.(d)] is dart [d]'s far endpoint, strictly ascending
   within a segment. *)
type t = { n : int; row : int array; endpoint : int array; m : int }

(* Sort, drop repeats, count degrees, then scatter both darts of each
   edge through per-node cursors. Ascending keys visit node [x]'s
   smaller neighbours (as [v] of [(u, x)]) before its larger ones (as
   [u] of [(x, v)]), each in ascending order, so every segment comes
   out sorted. *)
let of_packed n keys =
  Array.sort Int.compare keys;
  let m = ref 0 in
  Array.iter
    (fun k ->
      if !m = 0 || keys.(!m - 1) <> k then begin
        keys.(!m) <- k;
        incr m
      end)
    keys;
  let m = !m in
  let row = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = keys.(i) / n and v = keys.(i) mod n in
    row.(u + 1) <- row.(u + 1) + 1;
    row.(v + 1) <- row.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let endpoint = Array.make (2 * m) 0 in
  let cur = Array.sub row 0 n in
  for i = 0 to m - 1 do
    let u = keys.(i) / n and v = keys.(i) mod n in
    endpoint.(cur.(u)) <- v;
    cur.(u) <- cur.(u) + 1;
    endpoint.(cur.(v)) <- u;
    cur.(v) <- cur.(v) + 1
  done;
  { n; row; endpoint; m }

let create n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  let key (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.create: endpoint out of range";
    if u = v then invalid_arg "Graph.create: self-loop";
    (Stdlib.min u v * n) + Stdlib.max u v
  in
  let keys = Array.of_list (List.map key edge_list) in
  let g = of_packed n keys in
  if g.m <> Array.length keys then invalid_arg "Graph.create: duplicate edge";
  g

let n g = g.n
let m g = g.m
let degree g v = g.row.(v + 1) - g.row.(v)
let neighbours g v = List.init (degree g v) (fun i -> g.endpoint.(g.row.(v) + i))

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := Stdlib.max !best (degree g v)
  done;
  !best

let dart g u v =
  (* binary search over [lo, hi) of [u]'s ascending segment *)
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let w = g.endpoint.(mid) in
      if w = v then mid else if w < v then search (mid + 1) hi else search lo mid
  in
  if u < 0 || u >= g.n then -1 else search g.row.(u) g.row.(u + 1)

let has_edge g u v = dart g u v >= 0

(* Ascending [u], and [u]'s larger neighbours from the end of its
   segment down: descending [v]. *)
let fold_edges f init g =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    let d = ref (g.row.(u + 1) - 1) in
    while !d >= g.row.(u) && g.endpoint.(!d) > u do
      acc := f (u, g.endpoint.(!d)) !acc;
      decr d
    done
  done;
  !acc

let edges g = List.rev (fold_edges List.cons [] g)

(* Each edge is paired once, from its larger endpoint [w]: [w]'s darts
   to smaller nodes lead its segment, ascending. As [w] ascends, the
   reverse of [w]'s dart to [u] is the first unclaimed one among [u]'s
   darts to larger nodes. [u]'s cursor over those lives in the last
   slot of [u]'s segment in [mirror], which is claimed last, so the
   pass needs no second array; any other value there is a dart of
   another node, pointing at [u]. A claim must land on a dart pointing
   at [w], each node's darts to smaller nodes must ascend, and no
   cursor may be left inside its segment at the end. A dart with no
   reverse, or an unsorted segment, breaks one of the three. *)
let mirror g =
  let { n; row; endpoint; _ } = g in
  let mirror = Array.make (Array.length endpoint) 0 in
  let asymmetric () =
    invalid_arg "Graph.mirror: asymmetric or unsorted adjacency"
  in
  for w = 0 to n - 1 do
    let d' = ref row.(w) in
    while !d' < row.(w + 1) && endpoint.(!d') < w do
      let u = endpoint.(!d') in
      let last = row.(u + 1) - 1 in
      if last < row.(u) || (!d' > row.(w) && endpoint.(!d' - 1) >= u) then
        asymmetric ();
      let d = mirror.(last) in
      if endpoint.(d) <> w then asymmetric ();
      if d < last then mirror.(last) <- d + 1;
      mirror.(d) <- !d';
      mirror.(!d') <- d;
      incr d'
    done;
    if !d' < row.(w + 1) then mirror.(row.(w + 1) - 1) <- !d'
  done;
  for u = 0 to n - 1 do
    let last = row.(u + 1) - 1 in
    if last >= row.(u) && mirror.(last) >= row.(u) && mirror.(last) <= last then
      asymmetric ()
  done;
  mirror

(* Breadth-first search from [source] over the nodes [unseen] admits;
   [visit w u] marks [w], reached from [u]. *)
let bfs g source ~unseen ~visit =
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for d = g.row.(u) to g.row.(u + 1) - 1 do
      let w = g.endpoint.(d) in
      if unseen w then begin
        visit w u;
        Queue.add w queue
      end
    done
  done

let bfs_dist g source =
  let dist = Array.make g.n max_int in
  dist.(source) <- 0;
  bfs g source
    ~unseen:(fun w -> dist.(w) = max_int)
    ~visit:(fun w u -> dist.(w) <- dist.(u) + 1);
  dist

let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  for v = 0 to g.n - 1 do
    if comp.(v) < 0 then begin
      let id = !count in
      incr count;
      comp.(v) <- id;
      bfs g v ~unseen:(fun w -> comp.(w) < 0) ~visit:(fun w _ -> comp.(w) <- id)
    end
  done;
  (comp, !count)

let is_connected g = g.n <= 1 || snd (components g) = 1

let disjoint_union g1 g2 =
  let shift = g1.n in
  let edges2 = List.map (fun (u, v) -> (u + shift, v + shift)) (edges g2) in
  create (g1.n + g2.n) (edges g1 @ edges2)

let induced g nodes =
  let old_of_new = Array.of_list (List.sort_uniq Int.compare nodes) in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let es =
    fold_edges
      (fun (u, v) acc ->
        let u' = new_of_old.(u) and v' = new_of_old.(v) in
        if u' >= 0 && v' >= 0 then (u', v') :: acc else acc)
      [] g
  in
  (create (Array.length old_of_new) es, old_of_new)

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: bad permutation";
  create g.n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges g))

let is_isomorphic_small g1 g2 =
  if g1.n <> g2.n || g1.m <> g2.m then false
  else begin
    let n = g1.n in
    let image = Array.make n (-1) in
    let used = Array.make n false in
    (* Map node [v] of g1 to candidates in g2 respecting already-placed
       adjacency, by straightforward backtracking. *)
    let rec place v =
      if v = n then true
      else begin
        let rec try_candidates c =
          if c = n then false
          else if
            (not used.(c))
            && degree g1 v = degree g2 c
            &&
            (* nodes [0 .. v-1] are placed: adjacency to each must match *)
            let ok = ref true in
            for w = 0 to v - 1 do
              if image.(w) >= 0 then
                if has_edge g1 v w <> has_edge g2 c image.(w) then ok := false
            done;
            !ok
          then begin
            image.(v) <- c;
            used.(c) <- true;
            if place (v + 1) then true
            else begin
              image.(v) <- -1;
              used.(c) <- false;
              try_candidates (c + 1)
            end
          end
          else try_candidates (c + 1)
        in
        try_candidates 0
      end
    in
    place 0
  end

let pp fmt g =
  Format.fprintf fmt "@[graph(n=%d, m=%d:" g.n g.m;
  List.iter (fun (u, v) -> Format.fprintf fmt " %d-%d" u v) (edges g);
  Format.fprintf fmt ")@]"
