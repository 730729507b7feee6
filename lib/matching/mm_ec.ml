module Ec = Ld_models.Ec

type result = {
  matched_edges : int list;
  matched_loops : int list;
  matched_colour : int option array;
  rounds : int;
}

(* Greedy-by-colour's machine is this matching: a node saturates through
   the colour-c dart exactly when both endpoints are unmatched in phase
   c, so its saturation colour is its matched colour. *)
let greedy ?truncate g =
  (match truncate with
  | Some r when r < 0 -> invalid_arg "Mm_ec.greedy: negative truncation"
  | _ -> ());
  let colours, rounds = Packing.greedy_colours ?truncate g in
  let matched_colour = Array.map (fun c -> if c = 0 then None else Some c) colours in
  let matched_with v c =
    match matched_colour.(v) with Some c' -> c' = c | None -> false
  in
  let matched_edges =
    List.concat
      (List.mapi
         (fun id (e : Ec.edge) ->
           if matched_with e.u e.colour && matched_with e.v e.colour then [ id ]
           else [])
         (Ec.edges g))
  in
  let matched_loops =
    List.concat
      (List.mapi
         (fun id (l : Ec.loop) ->
           if matched_with l.node l.colour then [ id ] else [])
         (Ec.loops g))
  in
  { matched_edges; matched_loops; matched_colour; rounds }

let to_fm g r =
  let module Q = Ld_arith.Q in
  let edge_w = Array.make (Ec.num_edges g) Q.zero in
  let loop_w = Array.make (Ec.num_loops g) Q.zero in
  List.iter (fun id -> edge_w.(id) <- Q.one) r.matched_edges;
  List.iter (fun id -> loop_w.(id) <- Q.one) r.matched_loops;
  Ld_fm.Fm.create g ~edge_w ~loop_w

let as_packing_algorithm ?truncate () : Packing.algorithm =
  {
    name =
      (match truncate with
      | None -> "greedy-maximal-matching"
      | Some r -> Printf.sprintf "greedy-maximal-matching[%d rounds]" r);
    run = (fun g -> to_fm g (greedy ?truncate g));
  }

let is_maximal g r =
  (* Each matched node is matched through exactly one dart, and the dart
     colours pair up along edges. *)
  let claims = Array.make (Ec.n g) 0 in
  List.iter
    (fun id ->
      let e = Ec.edge g id in
      claims.(e.u) <- claims.(e.u) + 1;
      claims.(e.v) <- claims.(e.v) + 1)
    r.matched_edges;
  List.iter
    (fun id ->
      let l = Ec.loop g id in
      claims.(l.node) <- claims.(l.node) + 1)
    r.matched_loops;
  let is_matching =
    Array.for_all (fun c -> c <= 1) claims
    && Array.for_all2
         (fun c m -> (c = 1) = (m <> None))
         claims r.matched_colour
  in
  let covered =
    List.for_all
      (fun (e : Ec.edge) ->
        r.matched_colour.(e.u) <> None || r.matched_colour.(e.v) <> None)
      (Ec.edges g)
    && List.for_all
         (fun (l : Ec.loop) -> r.matched_colour.(l.node) <> None)
         (Ec.loops g)
  in
  is_matching && covered
