(* Appendix A / Figure 10: the canonical homogeneous order on the
   infinite PO-tree, computed through the combinatorial bracket
   ⟦x⇝y⟧, and its use in the PO ⇐ OI simulation (Fig. 9).

     dune exec examples/order_demo.exe *)

module O = Ld_order.Tree_order
module Sim = Ld_core.Simulate
module Po = Ld_models.Po

let fwd c = { O.fwd = true; colour = c }
let bwd c = { O.fwd = false; colour = c }

let show a = Format.asprintf "%a" O.pp a

(* Structural order on addresses, used only to visit each pair once. *)
let structural =
  List.compare (fun (a : O.step) b ->
      match Bool.compare a.fwd b.fwd with 0 -> Int.compare a.colour b.colour | c -> c)

let () =
  Printf.printf "=== the bracket order on tree addresses ===\n";
  let nodes =
    [
      [];
      [ fwd 1 ];
      [ bwd 1 ];
      [ fwd 2 ];
      [ bwd 2 ];
      [ fwd 1; fwd 2 ];
      [ fwd 1; bwd 2 ];
      [ bwd 2; fwd 1 ];
      [ fwd 2; fwd 1; bwd 2 ];
    ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if structural x y < 0 then
            Printf.printf "  [[ %s -> %s ]] = %+d   so %s\n" (show x) (show y)
              (O.bracket x y)
              (if O.compare x y < 0 then show x ^ " precedes " ^ show y
               else show y ^ " precedes " ^ show x))
        nodes)
    (List.filteri (fun i _ -> i < 3) nodes);

  Printf.printf "\nsorted neighbourhood of the origin:\n  %s\n"
    (String.concat " < " (List.map show (O.sort_nodes nodes)));

  (* Homogeneity (Lemma 4): translating every address by a common
     prefix never changes a comparison. *)
  Printf.printf "\n=== homogeneity ===\n";
  let z = [ bwd 2; fwd 1; fwd 3 ] in
  let ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun y -> O.compare (O.concat z x) (O.concat z y) = O.compare x y)
          nodes)
      nodes
  in
  Printf.printf "all %d comparisons survive translation by %s: %b\n"
    (List.length nodes * List.length nodes)
    (show z) ok;

  (* The order at work: an ordered view of a PO graph (Fig. 9). *)
  Printf.printf "\n=== canonically ordered view (PO <= OI simulation) ===\n";
  let g = Po.create ~n:3 ~arcs:[ (0, 1, 1); (2, 1, 2) ] ~loops:[ (0, 2) ] in
  let ov = Sim.ordered_view g 0 ~radius:2 in
  Printf.printf "view tree of node 0 at radius 2: %d nodes\n" (Po.n ov.ov_graph);
  Array.iteri
    (fun node rank -> Printf.printf "  tree node %d has canonical rank %d\n" node rank)
    ov.Sim.ov_rank
