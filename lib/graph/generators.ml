let path n =
  if n < 1 then invalid_arg "Generators.path";
  Graph.create n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle";
  Graph.create n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star k =
  if k < 0 then invalid_arg "Generators.star";
  Graph.create (k + 1) (List.init k (fun i -> (0, i + 1)))

let complete n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  Graph.create n !es

let complete_bipartite a b =
  let es = ref [] in
  for u = 0 to a - 1 do
    for v = 0 to b - 1 do
      es := (u, a + v) :: !es
    done
  done;
  Graph.create (a + b) !es

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let id r c = (r * cols) + c in
  let es = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then es := (id r c, id r (c + 1)) :: !es;
      if r + 1 < rows then es := (id r c, id (r + 1) c) :: !es
    done
  done;
  Graph.create (rows * cols) !es

let hypercube d =
  if d < 0 || d > 20 then invalid_arg "Generators.hypercube";
  let n = 1 lsl d in
  let es = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then es := (v, w) :: !es
    done
  done;
  Graph.create n !es

let binary_tree depth =
  if depth < 0 then invalid_arg "Generators.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  let es = ref [] in
  for v = 1 to n - 1 do
    es := ((v - 1) / 2, v) :: !es
  done;
  Graph.create n !es

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Generators.caterpillar";
  let es = ref [] in
  for i = 0 to spine - 2 do
    es := (i, i + 1) :: !es
  done;
  for i = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      es := (i, spine + (i * legs) + l) :: !es
    done
  done;
  Graph.create (spine + (spine * legs)) !es

let spider ~delta ~tail =
  if delta < 1 || tail < 1 then invalid_arg "Generators.spider";
  (* centre 0; leg i occupies nodes 1 + i*tail .. 1 + i*tail + (tail-1) *)
  let es = ref [] in
  for i = 0 to delta - 1 do
    let base = 1 + (i * tail) in
    es := (0, base) :: !es;
    for j = 0 to tail - 2 do
      es := (base + j, base + j + 1) :: !es
    done
  done;
  Graph.create (1 + (delta * tail)) !es

let random_tree ~seed n =
  if n < 1 then invalid_arg "Generators.random_tree";
  if n = 1 then Graph.create 1 []
  else if n = 2 then Graph.create 2 [ (0, 1) ]
  else begin
    let rng = Random.State.make [| seed; n; 0x7ee |] in
    let pruefer = Array.init (n - 2) (fun _ -> Random.State.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) pruefer;
    (* Standard Prüfer decoding with a pointer-and-leaf scan. *)
    let es = ref [] in
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iter
      (fun v ->
        es := (!leaf, v) :: !es;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 && v < !ptr then leaf := v
        else begin
          incr ptr;
          while deg.(!ptr) <> 1 do
            incr ptr
          done;
          leaf := !ptr
        end)
      pruefer;
    es := (!leaf, n - 1) :: !es;
    Graph.create n (List.map (fun (u, v) -> (Stdlib.min u v, Stdlib.max u v)) !es)
  end

let random_gnp ~seed n p =
  if n < 0 || p < 0.0 || p > 1.0 then invalid_arg "Generators.random_gnp";
  let rng = Random.State.make [| seed; n; 0x61f |] in
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then es := (u, v) :: !es
    done
  done;
  Graph.create n !es

let random_regular ~seed n d =
  if d < 0 || d >= n || (n * d) mod 2 <> 0 then
    invalid_arg "Generators.random_regular";
  let rng = Random.State.make [| seed; n; d; 0x2e9 |] in
  let attempt () =
    (* Configuration model: pair up n*d stubs uniformly at random and
       reject on loops/multi-edges. All RNG draws happen in the
       shuffle. *)
    let stubs = Array.init (n * d) (fun i -> i / d) in
    for i = Array.length stubs - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = stubs.(i) in
      stubs.(i) <- stubs.(j);
      stubs.(j) <- tmp
    done;
    let keys =
      Array.init (n * d / 2) (fun i ->
          let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
          (Stdlib.min u v * n) + Stdlib.max u v)
    in
    if Array.exists (fun k -> k / n = k mod n) keys then None
    else
      (* a repeated pair collapses into one edge, leaving fewer than n*d/2 *)
      let g = Graph.of_packed n keys in
      if Graph.m g = Array.length keys then Some g else None
  in
  (* Dense [d] (K_{d+1} at the extreme) can exhaust the retries. Then
     take the circulant joining [u] to [u ± 1 .. u ± d/2], plus [u + n/2]
     for odd [d] — simple and d-regular since [d < n] — relabelled by a
     permutation drawn from the same stream. *)
  let circulant () =
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    let es = ref [] in
    for u = 0 to n - 1 do
      for k = 1 to d / 2 do
        es := (perm.(u), perm.((u + k) mod n)) :: !es
      done;
      if d mod 2 = 1 && u < n / 2 then
        es := (perm.(u), perm.(u + (n / 2))) :: !es
    done;
    Graph.create n !es
  in
  let rec retry k =
    if k = 0 then circulant ()
    else
      match attempt () with
      | Some g -> g
      | None -> retry (k - 1)
  in
  retry 5000

let random_bounded_degree ~seed n max_deg =
  if n < 0 || max_deg < 0 then invalid_arg "Generators.random_bounded_degree";
  let rng = Random.State.make [| seed; n; max_deg; 0x90d |] in
  let deg = Array.make n 0 in
  (* All n(n-1)/2 candidate edges, packed as [u * n + v] in reverse
     lexicographic order. *)
  let total = n * (n - 1) / 2 in
  let arr = Array.make (Stdlib.max 1 total) 0 in
  let k = ref (total - 1) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      arr.(!k) <- (u * n) + v;
      decr k
    done
  done;
  (* Shuffle candidate edges, then greedily keep those respecting the
     degree bound with probability favouring a dense-but-bounded graph. *)
  for i = total - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  (* Accepted edges are compacted into the prefix of the same array. *)
  let ne = ref 0 in
  for i = 0 to total - 1 do
    let u = arr.(i) / n and v = arr.(i) mod n in
    if deg.(u) < max_deg && deg.(v) < max_deg && Random.State.bool rng then begin
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      arr.(!ne) <- arr.(i);
      incr ne
    end
  done;
  Graph.of_packed n (Array.sub arr 0 !ne)

let perm_regular ~seed n d =
  if d < 2 || d mod 2 <> 0 || d >= n then invalid_arg "Generators.perm_regular";
  let rng = Random.State.make [| seed; n; d; 0x9e4 |] in
  (* Union of d/2 random permutation cycle covers: each permutation
     contributes edges {v, pi v}, giving every node degree <= 2 per
     cover. Unlike the configuration model there is no global
     rejection — fixed points are skipped and an edge drawn twice is
     kept once (a vanishing fraction), so generation is O(n d) at any
     scale. The result is a simple graph of max degree <= d,
     near-d-regular. *)
  let perm = Array.init n (fun i -> i) in
  let packed = Array.make (n * d / 2) 0 in
  let ne = ref 0 in
  for _ = 1 to d / 2 do
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    for v = 0 to n - 1 do
      let w = perm.(v) in
      if v <> w then begin
        packed.(!ne) <- (Stdlib.min v w * n) + Stdlib.max v w;
        incr ne
      end
    done
  done;
  Graph.of_packed n (Array.sub packed 0 !ne)

let stream_biregular_tree ~d ~delta n =
  if d < 1 || delta < 1 || n < 1 then
    invalid_arg "Generators.stream_biregular_tree";
  (* BFS-ordered (d, delta)-biregular tree truncated at [n] nodes: the
     root (side A) wants [d] children; below it, side-B nodes want
     [delta - 1] and side-A nodes [d - 1]. Children get consecutive
     ids, so every segment is [parent; children...] — ascending, and
     each BFS level is an id range whose side alternates. The parent
     edge of the [i]-th child carries the [i+1]-th colour not used by
     the parent's own parent edge, which keeps the colouring proper
     with at most [max d delta] colours.

     The first pass sizes the segments. When [v] reaches the end of its
     level, every node of that level has taken its children, so [next]
     is the end of the level [v] starts. A node no one took as a child
     means the tree ran out before [n] nodes: with [d = 1] or
     [delta = 1] it is a star on [max d delta + 1] nodes. *)
  let row = Array.make (n + 1) 0 in
  let next = ref 1 and level_end = ref 1 and side_b = ref false in
  for v = 0 to n - 1 do
    if v >= !next then
      invalid_arg
        (Printf.sprintf
           "Generators.stream_biregular_tree: the (%d, %d) tree has %d nodes, \
            fewer than %d"
           d delta v n);
    if v = !level_end then begin
      level_end := !next;
      side_b := not !side_b
    end;
    let want = if v = 0 then d else if !side_b then delta - 1 else d - 1 in
    let k = Stdlib.min want (n - !next) in
    next := !next + k;
    row.(v + 1) <- row.(v) + k + if v = 0 then 0 else 1
  done;
  (* The second pass writes each edge from its parent [v], both darts
     at once: [v]'s dart to its [i]-th child [c] follows [v]'s parent
     dart, and [c]'s dart to [v] leads [c]'s segment. [v]'s own parent
     dart was written when [v]'s parent was visited, so it holds the
     parent colour. *)
  let nd = row.(n) in
  let endpoint = Array.make nd 0 in
  let colour = Array.make nd 0 in
  let mirror = Array.make nd 0 in
  let next = ref 1 in
  for v = 0 to n - 1 do
    let pcol = if v = 0 then 0 else colour.(row.(v)) in
    let base = row.(v) + if v = 0 then 0 else 1 in
    for i = 0 to row.(v + 1) - base - 1 do
      let c = !next + i in
      let col = i + 1 in
      let col = if pcol > 0 && col >= pcol then col + 1 else col in
      let down = base + i and back = row.(c) in
      endpoint.(down) <- c;
      endpoint.(back) <- v;
      colour.(down) <- col;
      colour.(back) <- col;
      mirror.(down) <- back;
      mirror.(back) <- down
    done;
    next := !next + row.(v + 1) - base
  done;
  { Csr.n; row; endpoint; colour; mirror; m = nd / 2 }

let bench_families =
  let clamp lo v = Stdlib.max lo v in
  [
    ( "path",
      fun ~seed:_ ~n ~delta:_ -> path (clamp 2 n) );
    ( "cycle",
      fun ~seed:_ ~n ~delta:_ -> cycle (clamp 3 n) );
    ( "star",
      fun ~seed:_ ~n:_ ~delta -> star (clamp 1 delta) );
    ( "spider",
      fun ~seed:_ ~n:_ ~delta -> spider ~delta:(clamp 2 delta) ~tail:3 );
    ( "caterpillar",
      fun ~seed:_ ~n ~delta ->
        caterpillar ~spine:(clamp 2 (n / clamp 1 delta)) ~legs:(clamp 1 (delta - 2)) );
    ( "random-tree",
      fun ~seed ~n ~delta:_ -> random_tree ~seed (clamp 2 n) );
    ( "random-regular",
      fun ~seed ~n ~delta ->
        let d = clamp 2 delta in
        let n = clamp (d + 1) n in
        let n = if n * d mod 2 = 0 then n else n + 1 in
        random_regular ~seed n d );
    ( "bounded-gnp",
      fun ~seed ~n ~delta -> random_bounded_degree ~seed (clamp 2 n) (clamp 1 delta) );
  ]
