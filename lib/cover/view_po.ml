module Po = Ld_models.Po
module Obs = Ld_obs.Obs

type key = { out : bool; colour : int }

type t = { tag : int; branches : (key * t) list }

let c_cons_hits = Obs.Counter.make "cover.view.cons_hits"

let key_of_dart = function
  | Po.Out { colour; _ } | Po.Loop_out { colour; _ } -> { out = true; colour }
  | Po.In { colour; _ } | Po.Loop_in { colour; _ } -> { out = false; colour }

(* Field order (out, colour) matches the record declaration, so this is
   the same total order the polymorphic compare used to give. *)
let key_compare a b =
  let c = Bool.compare a.out b.out in
  if c <> 0 then c else Int.compare a.colour b.colour

(* ------------------------------------------------------------------ *)
(* Global hash-cons arena, the PO twin of {!View}'s: identity is the
   canonical (key-sorted) branch list with children by tag, packed as an
   int array [out; colour; child tag; ...]. Shared process-wide under a
   mutex; {!equal} is a tag comparison. *)

module Arena_key = struct
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

module Arena = Hashtbl.Make (Arena_key)

let arena : t Arena.t = Arena.create 4096
let arena_mutex = Mutex.create ()
let next_tag = ref 0

let cons branches =
  let akey = Array.make (3 * List.length branches) 0 in
  List.iteri
    (fun i (k, child) ->
      akey.(3 * i) <- Bool.to_int k.out;
      akey.((3 * i) + 1) <- k.colour;
      akey.((3 * i) + 2) <- child.tag)
    branches;
  Mutex.protect arena_mutex (fun () ->
      match Arena.find_opt arena akey with
      | Some v ->
        Obs.Counter.incr c_cons_hits;
        v
      | None ->
        let v = { tag = !next_tag; branches } in
        incr next_tag;
        Arena.add arena akey v;
        v)

(* The node at a dart's other end, together with the arrival dart key
   over there. Loops lead to a fiber copy of the node itself. *)
let cross v = function
  | Po.Out { neighbour; colour; _ } -> (neighbour, { out = false; colour })
  | Po.In { neighbour; colour; _ } -> (neighbour, { out = true; colour })
  | Po.Loop_out { colour; _ } -> (v, { out = false; colour })
  | Po.Loop_in { colour; _ } -> (v, { out = true; colour })

(* Memoised over (node, banned key, depth) as in {!View.of_ec}: the
   cover repeats subtrees, so the Δ^t tree needs only O(n·Δ·t) conses. *)
let of_po g root ~radius =
  if radius < 0 then invalid_arg "View_po.of_po: negative radius";
  let csr = Po.csr g in
  let maxc = Array.fold_left Stdlib.max 0 csr.Po.colour in
  (* banned encodes as 0 (none) or 2*colour + out?; colours >= 1. *)
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let memo_key v banned depth =
    let b =
      match banned with
      | Some k -> (2 * k.colour) + Bool.to_int k.out
      | None -> 0
    in
    ((v * ((2 * maxc) + 2)) + b) * (radius + 1) + depth
  in
  let rec unfold v banned depth =
    if depth = 0 then cons []
    else begin
      let mk = memo_key v banned depth in
      match Hashtbl.find_opt memo mk with
      | Some t -> t
      | None ->
        let follow dart =
          let key = key_of_dart dart in
          let is_banned =
            match banned with Some k -> key_compare k key = 0 | None -> false
          in
          if is_banned then None
          else begin
            let target, arrival = cross v dart in
            Some (key, unfold target (Some arrival) (depth - 1))
          end
        in
        (* Keys are unique among a node's darts, so sorting by key alone
           is the same total order the polymorphic sort used to give. *)
        let by_key (ka, _) (kb, _) = key_compare ka kb in
        let t = cons (List.sort by_key (List.filter_map follow (Po.darts g v))) in
        Hashtbl.add memo mk t;
        t
    end
  in
  unfold root None radius

(* Tag equality — same arena node iff structurally equal. *)
let equal a b = a.tag = b.tag

let rec size v = 1 + List.fold_left (fun acc (_, t) -> acc + size t) 0 v.branches

let rec depth v =
  List.fold_left (fun acc (_, t) -> Stdlib.max acc (1 + depth t)) 0 v.branches

let paths view =
  let acc = ref [] in
  let rec walk prefix v =
    acc := List.rev prefix :: !acc;
    List.iter (fun (k, sub) -> walk (k :: prefix) sub) v.branches
  in
  walk [] view;
  List.rev !acc

let to_po view =
  let counter = ref 0 in
  let fresh () =
    let id = !counter in
    incr counter;
    id
  in
  let arcs = ref [] in
  let index = ref [] in
  let rec walk prefix v id =
    index := (List.rev prefix, id) :: !index;
    List.iter
      (fun (k, sub) ->
        let child = fresh () in
        if k.out then arcs := (id, child, k.colour) :: !arcs
        else arcs := (child, id, k.colour) :: !arcs;
        walk (k :: prefix) sub child)
      v.branches
  in
  let root = fresh () in
  walk [] view root;
  (Po.create ~n:!counter ~arcs:(List.rev !arcs) ~loops:[], List.rev !index)

let rec pp fmt v =
  if v.branches = [] then Format.pp_print_string fmt "."
  else begin
    Format.fprintf fmt "(";
    List.iteri
      (fun i (k, sub) ->
        if i > 0 then Format.fprintf fmt " ";
        Format.fprintf fmt "%s%d:%a" (if k.out then "+" else "-") k.colour pp sub)
      v.branches;
    Format.fprintf fmt ")"
  end
