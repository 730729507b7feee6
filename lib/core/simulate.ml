module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
module Po_fm = Ld_fm.Po_fm
module View = Ld_cover.View
module Darts = Ld_models.Darts
module Tree_order = Ld_order.Tree_order
module Packing = Ld_matching.Packing
module Po_packing = Ld_matching.Po_packing

(* ------------------------------------------------------------------ *)
(* EC ⇐ PO (§5.1).  [Po.of_ec] lists, for EC edge i, its two arcs at
   ids 2i and 2i+1, and maps EC loop j to PO loop j.                    *)

let ec_of_po (a : Po_packing.algorithm) : Packing.algorithm =
  {
    name = Printf.sprintf "ec-of-po(%s)" a.name;
    run =
      (fun ec ->
        let po = Po.of_ec ec in
        let y = a.run po in
        let edge_w =
          Array.init (Ec.num_edges ec) (fun i ->
              Q.add (Po_fm.arc_weight y (2 * i)) (Po_fm.arc_weight y ((2 * i) + 1)))
        in
        let loop_w =
          Array.init (Ec.num_loops ec) (fun j ->
              (* the loop's lifted edge carries one arc each way *)
              Q.add (Po_fm.loop_weight y j) (Po_fm.loop_weight y j))
        in
        Fm.create ec ~edge_w ~loop_w);
  }

(* ------------------------------------------------------------------ *)
(* PO ⇐ OI (§5.3).                                                     *)

type ordered_view = { ov_graph : Po.t; ov_root : int; ov_rank : int array }

let address_of_path =
  List.map (fun k -> { Tree_order.fwd = Darts.is_out k; colour = Darts.colour k })

let ordered_view_in arena g v ~radius =
  let po, index = View.to_po (View.of_po arena g v ~radius) in
  let nodes = List.map (fun (path, id) -> (id, address_of_path path)) index in
  let sorted =
    List.sort (fun (_, a) (_, b) -> Tree_order.compare a b) nodes
  in
  let rank = Array.make (Po.n po) 0 in
  List.iteri (fun r (id, _) -> rank.(id) <- r) sorted;
  { ov_graph = po; ov_root = 0; ov_rank = rank }

let ordered_view g v ~radius = ordered_view_in (View.arena ()) g v ~radius

type oi_rule = {
  oi_name : string;
  oi_radius : int;
  oi_apply : ordered_view -> (int * Q.t) list;
}

(* The depth-1 tree node across each dart of the input node: root darts
   of the materialised view keep the keys of the original node's darts. *)
let root_children ov =
  let t = Po.csr ov.ov_graph in
  List.init (Po.degree ov.ov_graph ov.ov_root) (fun i ->
      (t.key.(t.row.(ov.ov_root) + i), t.other.(t.row.(ov.ov_root) + i)))

let po_of_oi rule : Po_packing.algorithm =
  if rule.oi_radius < 1 then invalid_arg "Simulate.po_of_oi: radius must be >= 1";
  {
    name = Printf.sprintf "po-of-oi(%s)" rule.oi_name;
    run =
      (fun g ->
        (* One arena per run: the views of all nodes share subtrees, and
           they are freed with the run. *)
        let arena = View.arena () in
        let answer =
          Array.init (Po.n g) (fun v ->
              let ov = ordered_view_in arena g v ~radius:rule.oi_radius in
              let by_child = rule.oi_apply ov in
              List.map
                (fun (key, child) ->
                  match List.assoc_opt child by_child with
                  | Some w -> (key, w)
                  | None ->
                    failwith
                      (rule.oi_name
                     ^ ": rule returned no weight for a root edge"))
                (root_children ov))
        in
        let weight_at v key =
          match List.assoc_opt key answer.(v) with
          | Some w -> w
          | None -> failwith (rule.oi_name ^ ": missing dart answer")
        in
        match Po_fm.of_key_weights g weight_at with
        | Ok y -> y
        | Error `Arc ->
          failwith
            (rule.oi_name
           ^ ": endpoints disagree — the rule is not a consistent local \
              algorithm")
        | Error `Loop ->
          failwith
            (rule.oi_name ^ ": loop dart answers disagree — not lift-invariant"));
  }

let proposal_rule ~rounds =
  if rounds < 0 then invalid_arg "Simulate.proposal_rule: negative rounds";
  {
    oi_name = Printf.sprintf "oi-proposal[%d rounds]" rounds;
    oi_radius = rounds + 1;
    oi_apply =
      (fun ov ->
        (* Run the dynamics centrally on the (loop-free) view tree; the
           root's dart weights after [rounds] rounds coincide with its
           weights on the full graph, because a radius-(rounds+1) view
           determines a (rounds)-round state. *)
        let y, _ = Po_packing.proposal ~truncate:rounds ov.ov_graph in
        List.filter_map
          (fun dart ->
            match dart with
            | Po.Out { neighbour; arc_id; _ } | Po.In { neighbour; arc_id; _ } ->
              Some (neighbour, Po_fm.arc_weight y arc_id)
            | Po.Loop_out _ | Po.Loop_in _ -> None)
          (Po.darts ov.ov_graph ov.ov_root));
  }

let rank_weighted_rule =
  {
    oi_name = "rank-weighted";
    oi_radius = 2;
    oi_apply =
      (fun ov ->
        let po = ov.ov_graph and rank = ov.ov_rank in
        (* Underlying (undirected) adjacency of the view tree. *)
        let nbrs v =
          List.map
            (fun dart ->
              match dart with
              | Po.Out { neighbour; _ } | Po.In { neighbour; _ } -> neighbour
              | Po.Loop_out _ | Po.Loop_in _ -> assert false)
            (Po.darts po v)
        in
        let degree v = List.length (nbrs v) in
        let root = ov.ov_root in
        List.map
          (fun w ->
            let a, b = if rank.(root) < rank.(w) then (root, w) else (w, root) in
            let count =
              List.length
                (List.filter (fun x -> x <> b && rank.(x) < rank.(b)) (nbrs a))
            in
            let base = Q.of_ints 1 (degree root + degree w) in
            (w, if count mod 2 = 0 then base else Q.mul Q.half base))
          (nbrs root));
  }
