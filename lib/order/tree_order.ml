type step = { fwd : bool; colour : int }
type address = step list

let inverse s = { s with fwd = not s.fwd }
let step_equal a b = Bool.equal a.fwd b.fwd && Int.equal a.colour b.colour
let equal = List.equal step_equal

let normalize steps =
  (* One left-to-right pass with a stack cancels all inverse pairs. *)
  let push acc s =
    match acc with
    | top :: rest when step_equal top (inverse s) -> rest
    | _ -> s :: acc
  in
  List.rev (List.fold_left push [] steps)

let concat a b = normalize (a @ b)

(* Rank of a dart at a node, PO1 convention: outgoing darts by colour
   first, then incoming darts by colour. *)
let dart_rank ~out ~colour = ((if out then 0 else 1), colour)

let compare_dart (a, b) (c, d) =
  match Int.compare a c with 0 -> Int.compare b d | o -> o

(* The dart by which a step [s] leaves its source node, and the dart by
   which it enters its target node. *)
let departure_dart s = dart_rank ~out:s.fwd ~colour:s.colour
let arrival_dart s = dart_rank ~out:(not s.fwd) ~colour:s.colour

let bracket x y =
  (* Strip the common prefix; the path x⇝y is reverse(a) then b. *)
  let rec strip a b =
    match (a, b) with
    | sa :: ra, sb :: rb when step_equal sa sb -> strip ra rb
    | _ -> (a, b)
  in
  let a, b = strip x y in
  let path = List.rev_map inverse a @ b in
  let edge_term = List.fold_left (fun acc s -> acc + if s.fwd then 1 else -1) 0 path in
  let rec node_terms acc = function
    | s_in :: (s_out :: _ as rest) ->
      let t =
        if compare_dart (arrival_dart s_in) (departure_dart s_out) < 0 then 1
        else -1
      in
      node_terms (acc + t) rest
    | _ -> acc
  in
  edge_term + node_terms 0 path

let compare x y =
  if equal x y then 0 else begin
    let b = bracket x y in
    (* The bracket is odd for distinct reduced addresses, hence nonzero. *)
    assert (b <> 0);
    if b > 0 then -1 else 1
  end

let sort_nodes addrs = List.sort compare addrs

let pp_step fmt s =
  Format.fprintf fmt "%s%d" (if s.fwd then "+" else "-") s.colour

let pp fmt a =
  if a = [] then Format.pp_print_string fmt "o"
  else List.iter (pp_step fmt) a
