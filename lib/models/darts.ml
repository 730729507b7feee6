type t = { row : int array; key : int array; other : int array; code : int array }

let n t = Array.length t.row - 1

(* Colours stay below [in_bit], so a PO key is the colour with one
   direction bit above it and every key fits in 31 bits. *)
let in_bit = 1 lsl 30

let check_colour who c =
  if c < 1 || c >= in_bit then
    invalid_arg (Printf.sprintf "%s: colour %d outside [1, 2^30)" who c)

let po_key ~out c = if out then c else c lor in_bit
let colour k = k land (in_bit - 1)
let is_out k = k land in_bit = 0
let flip k = k lxor in_bit

(* Sort the segment [lo, hi) by key, moving [other] and [code] along.
   Adversary and runtime segments hold at most Δ darts, where insertion
   sort is fastest; longer ones go through a sorted permutation. Keys
   at a node are distinct in any valid graph, so the order is unique
   and stability does not matter. *)
let sort_segment { key; other; code; _ } lo hi =
  if hi - lo <= 16 then
    for d = lo + 1 to hi - 1 do
      let kd = key.(d) and od = other.(d) and cd = code.(d) in
      let j = ref d in
      while !j > lo && key.(!j - 1) > kd do
        key.(!j) <- key.(!j - 1);
        other.(!j) <- other.(!j - 1);
        code.(!j) <- code.(!j - 1);
        decr j
      done;
      key.(!j) <- kd;
      other.(!j) <- od;
      code.(!j) <- cd
    done
  else begin
    let perm = Array.init (hi - lo) (fun i -> lo + i) in
    Array.sort (fun a b -> Int.compare key.(a) key.(b)) perm;
    let k = Array.map (fun d -> key.(d)) perm
    and o = Array.map (fun d -> other.(d)) perm
    and c = Array.map (fun d -> code.(d)) perm in
    Array.blit k 0 key lo (hi - lo);
    Array.blit o 0 other lo (hi - lo);
    Array.blit c 0 code lo (hi - lo)
  end

(* Count degrees, prefix-sum the rows, scatter every dart straight into
   its slot, then key-sort each segment in place and check that keys
   are distinct: the invariant every runner and the refinement core
   relies on. No dart record or list is allocated. *)
let build ~n ~clash each =
  let row = Array.make (n + 1) 0 in
  each (fun v _ _ _ -> row.(v + 1) <- row.(v + 1) + 1);
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let m = row.(n) in
  let t = { row; key = Array.make m 0; other = Array.make m 0; code = Array.make m 0 } in
  let next = Array.sub row 0 n in
  each (fun v k o c ->
      let d = next.(v) in
      next.(v) <- d + 1;
      t.key.(d) <- k;
      t.other.(d) <- o;
      t.code.(d) <- c);
  for v = 0 to n - 1 do
    let lo = row.(v) and hi = row.(v + 1) in
    sort_segment t lo hi;
    for d = lo + 1 to hi - 1 do
      if t.key.(d - 1) = t.key.(d) then invalid_arg (clash v t.key.(d))
    done
  done;
  t

(* Keys ascend along a segment: binary search. *)
let find t v k =
  let lo = ref t.row.(v) and hi = ref (t.row.(v + 1) - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let km = t.key.(mid) in
    if km = k then found := mid else if km < k then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* The union serves refinement, which reads no code, so it carries
   none: copying them would only grow the heap. *)
let union a b =
  let na = n a and nb = n b in
  let ma = a.row.(na) and mb = b.row.(nb) in
  let row = Array.make (na + nb + 1) 0 in
  Array.blit a.row 0 row 0 na;
  for v = 0 to nb do
    row.(na + v) <- ma + b.row.(v)
  done;
  let other = Array.make (ma + mb) 0 in
  Array.blit a.other 0 other 0 ma;
  for d = 0 to mb - 1 do
    other.(ma + d) <- b.other.(d) + na
  done;
  { row; key = Array.append a.key b.key; other; code = [||] }
