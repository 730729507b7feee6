module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Darts
module Obs = Ld_obs.Obs

type t = { tag : int; branches : (int * t) list }

let c_cons_hits = Obs.Counter.make "cover.view.cons_hits"

(* Hash-cons arena. A view's identity is its branch list with children
   taken by tag; because branches are built in ascending key order with
   distinct keys, the list is canonical and two isomorphic views built
   in one arena always cons to the same node, so equality is physical.
   The arena belongs to its caller: no lock, and its views are freed
   with it. *)

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

module Table = Hashtbl.Make (Key)

type arena = t Table.t

let arena () : arena = Table.create 256

let cons arena branches =
  let key = Array.make (2 * List.length branches) 0 in
  List.iteri
    (fun i (k, child) ->
      key.(2 * i) <- k;
      key.((2 * i) + 1) <- child.tag)
    branches;
  match Table.find_opt arena key with
  | Some v ->
    Obs.Counter.incr c_cons_hits;
    v
  | None ->
    let v = { tag = Table.length arena; branches } in
    Table.add arena key v;
    v

(* One unfold for both models over the dart table, and for EC the loop
   run beside it. Following dart [d] from [v] arrives at [other.(d)]
   over the dart keyed [arrive key.(d)] (the same key in EC, the
   flipped one in PO), which the next level must not walk back along; a
   loop of key [k] arrives back at [v] over [k]. A node's darts and
   loops are merged in key order. The universal cover repeats subtrees
   massively (every visit to a node over the same arrival key with the
   same remaining depth unfolds identically), so memoising over
   (node, arrival key, depth) builds the Δ^t tree in O(n · Δ · t) cons
   operations. The root arrives over no dart: key 0, which no dart has. *)
let unfold arena ~who ~arrive (t : Darts.t) ~loop_row ~loop_key root ~radius =
  if radius < 0 then invalid_arg (who ^ ": negative radius");
  if root < 0 || root >= Darts.n t then
    invalid_arg (Printf.sprintf "%s: node %d is not in 0 .. %d" who root (Darts.n t - 1));
  let memo : (int * int * int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go v banned depth =
    if depth = 0 then cons arena []
    else
      match Hashtbl.find_opt memo (v, banned, depth) with
      | Some view -> view
      | None ->
        let branches = ref [] in
        let lo = t.row.(v) and d = ref (t.row.(v + 1) - 1) in
        let llo = if Array.length loop_row = 0 then 0 else loop_row.(v) in
        let j = ref (if Array.length loop_row = 0 then -1 else loop_row.(v + 1) - 1) in
        while !d >= lo || !j >= llo do
          let edge = !j < llo || (!d >= lo && t.key.(!d) > loop_key.(!j)) in
          let k = if edge then t.key.(!d) else loop_key.(!j) in
          let far = if edge then t.other.(!d) else v in
          if edge then decr d else decr j;
          if k <> banned then branches := (k, go far (arrive k) (depth - 1)) :: !branches
        done;
        let view = cons arena !branches in
        Hashtbl.add memo (v, banned, depth) view;
        view
  in
  go root 0 radius

let of_ec arena g root ~radius =
  unfold arena ~who:"View.of_ec" ~arrive:Fun.id (Ec.edge_darts g)
    ~loop_row:(Ec.loop_row g) ~loop_key:(Ec.loop_colour g) root ~radius

let of_po arena g root ~radius =
  unfold arena ~who:"View.of_po" ~arrive:Darts.flip (Po.csr g) ~loop_row:[||]
    ~loop_key:[||] root ~radius

(* Within one arena, the same node iff structurally equal. *)
let equal a b = a == b

let rec size v = 1 + List.fold_left (fun acc (_, t) -> acc + size t) 0 v.branches

let rec depth v =
  List.fold_left (fun acc (_, t) -> Stdlib.max acc (1 + depth t)) 0 v.branches

let branch v c = List.assoc_opt c v.branches

(* Number the nodes in DFS order, the root 0, and hand every
   parent-to-child step to [edge parent child key]. *)
let number view edge =
  let counter = ref 0 and index = ref [] in
  let rec walk prefix v id =
    index := (List.rev prefix, id) :: !index;
    List.iter
      (fun (k, sub) ->
        incr counter;
        let child = !counter in
        edge id child k;
        walk (k :: prefix) sub child)
      v.branches
  in
  walk [] view 0;
  (!counter + 1, List.rev !index)

let paths view = List.map fst (snd (number view (fun _ _ _ -> ())))

let to_ec view =
  let edges = ref [] in
  let n, _ = number view (fun id child c -> edges := (id, child, c) :: !edges) in
  Ec.create ~n ~edges:!edges ~loops:[]

let to_po view =
  let arcs = ref [] in
  let n, index =
    number view (fun id child k ->
        let c = Darts.colour k in
        arcs := (if Darts.is_out k then (id, child, c) else (child, id, c)) :: !arcs)
  in
  (Po.create ~n ~arcs:(List.rev !arcs) ~loops:[], index)

let rec pp fmt v =
  if v.branches = [] then Format.pp_print_string fmt "."
  else begin
    Format.fprintf fmt "(";
    List.iteri
      (fun i (k, sub) ->
        if i > 0 then Format.fprintf fmt " ";
        Format.fprintf fmt "%s%d:%a"
          (if Darts.is_out k then "" else "-")
          (Darts.colour k) pp sub)
      v.branches;
    Format.fprintf fmt ")"
  end
