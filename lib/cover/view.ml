module Ec = Ld_models.Ec
module Obs = Ld_obs.Obs

type t = { tag : int; branches : (int * t) list }

let c_cons_hits = Obs.Counter.make "cover.view.cons_hits"

(* ------------------------------------------------------------------ *)
(* Global hash-cons arena. A view's identity is its branch list with
   children taken by tag; because branches are built in ascending
   colour order with distinct colours, the list is canonical and two
   isomorphic views always cons to the same node. The arena is shared
   across graphs, levels and deltas for the lifetime of the process, so
   equality is a single tag comparison. A mutex serialises consing —
   views are built off the refinement hot path, sharing matters more
   than lock-free speed here. *)

module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i =
      i >= la || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0

  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193
    done;
    !h land max_int
end

module Arena = Hashtbl.Make (Key)

let arena : t Arena.t = Arena.create 4096
let arena_mutex = Mutex.create ()
let next_tag = ref 0

let cons branches =
  let key = Array.make (2 * List.length branches) 0 in
  List.iteri
    (fun i (c, child) ->
      key.(2 * i) <- c;
      key.((2 * i) + 1) <- child.tag)
    branches;
  Mutex.protect arena_mutex (fun () ->
      match Arena.find_opt arena key with
      | Some v ->
        Obs.Counter.incr c_cons_hits;
        v
      | None ->
        let v = { tag = !next_tag; branches } in
        incr next_tag;
        Arena.add arena key v;
        v)

let banned_is banned (colour : int) =
  match banned with Some c -> c = colour | None -> false

(* Memoised over (node, banned colour, depth) within one call: the
   universal cover repeats subtrees massively (every visit to [v] with
   the same entry colour and remaining depth unfolds identically), so
   the tree of size Δ^t is built in O(n · Δ · t) cons operations. *)
let of_ec g root ~radius =
  if radius < 0 then invalid_arg "View.of_ec: negative radius";
  (* banned is [None] or an edge colour >= 1; encode as 0 / colour. *)
  let csr = Ec.csr g in
  let maxc = Array.fold_left Stdlib.max 0 csr.Ec.colour in
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let memo_key v banned depth =
    let b = match banned with Some c -> c | None -> 0 in
    ((v * (maxc + 1)) + b) * (radius + 1) + depth
  in
  let rec unfold v banned depth =
    if depth = 0 then cons []
    else begin
      let k = memo_key v banned depth in
      match Hashtbl.find_opt memo k with
      | Some t -> t
      | None ->
        let follow dart =
          match dart with
          | Ec.To_neighbour { neighbour; colour; _ } ->
            if banned_is banned colour then None
            else Some (colour, unfold neighbour (Some colour) (depth - 1))
          | Ec.Into_loop { colour; _ } ->
            if banned_is banned colour then None
            else Some (colour, unfold v (Some colour) (depth - 1))
        in
        let t = cons (List.filter_map follow (Ec.darts g v)) in
        Hashtbl.add memo k t;
        t
    end
  in
  unfold root None radius

(* Hash-consing makes equality a tag comparison: same arena node iff
   structurally equal. *)
let equal a b = a.tag = b.tag

(* Ordering stays structural: tags are assigned in arena insertion
   order, which depends on evaluation history — using them for ordering
   would be a run-to-run determinism hazard. *)
let rec compare_branches ba bb =
  match (ba, bb) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ca, ta) :: ra, (cb, tb) :: rb ->
    let c = Int.compare ca cb in
    if c <> 0 then c
    else begin
      let c = if ta.tag = tb.tag then 0 else compare_branches ta.branches tb.branches in
      if c <> 0 then c else compare_branches ra rb
    end

let compare a b = if a.tag = b.tag then 0 else compare_branches a.branches b.branches

let rec size v = 1 + List.fold_left (fun acc (_, t) -> acc + size t) 0 v.branches

let rec depth v =
  List.fold_left (fun acc (_, t) -> Stdlib.max acc (1 + depth t)) 0 v.branches

let branch v c = List.assoc_opt c v.branches

let to_ec view =
  let counter = ref 0 in
  let edges = ref [] in
  let fresh () =
    let id = !counter in
    incr counter;
    id
  in
  let rec walk v id =
    List.iter
      (fun (colour, sub) ->
        let child = fresh () in
        edges := (id, child, colour) :: !edges;
        walk sub child)
      v.branches
  in
  let root = fresh () in
  walk view root;
  Ec.create ~n:!counter ~edges:!edges ~loops:[]

let rec pp fmt v =
  if v.branches = [] then Format.pp_print_string fmt "."
  else begin
    Format.fprintf fmt "(";
    List.iteri
      (fun i (c, sub) ->
        if i > 0 then Format.fprintf fmt " ";
        Format.fprintf fmt "%d:%a" c pp sub)
      v.branches;
    Format.fprintf fmt ")"
  end
