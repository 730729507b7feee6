(* Figure 1 as code: one graph seen through the four deterministic
   models — ID, OI, PO, EC — plus the lift machinery of §3.4–3.5
   (universal covers, factor graphs, loopiness).

     dune exec examples/models_tour.exe *)

module G = Ld_graph.Graph
module Gen = Ld_graph.Generators
module Labelled = Ld_models.Labelled
module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Colouring = Ld_models.Edge_colouring
module Factor = Ld_cover.Factor
module Loopy = Ld_cover.Loopy
module Lift = Ld_cover.Lift
module View = Ld_cover.View
module Refinement = Ld_cover.Refinement

let () =
  (* The 4-cycle: small enough to see everything. *)
  let g = Gen.cycle 4 in
  Format.printf "the graph: %a@.@." G.pp g;

  (* ID: unique identifiers — the strongest model. *)
  let id = Labelled.Id.create g [| 12; 7; 30; 4 |] in
  Printf.printf "[ID] identifiers: %s\n"
    (String.concat " "
       (List.map (fun v -> string_of_int (Labelled.Id.id id v)) [ 0; 1; 2; 3 ]));

  (* OI: only the relative order of the labels survives. *)
  let oi = Labelled.Oi.of_id id in
  Printf.printf "[OI] node ranks:  %s\n"
    (String.concat " "
       (List.map (fun v -> string_of_int (Labelled.Oi.rank oi v)) [ 0; 1; 2; 3 ]));

  (* PO: orientation + port numbering, no names at all. *)
  let po =
    Po.of_ports ~n:4
      ~connections:[ (0, 1, 1, 2); (1, 1, 2, 2); (2, 1, 3, 2); (3, 1, 0, 2) ]
  in
  Format.printf "[PO] %a@." Po.pp po;

  (* EC: a proper edge colouring is the only symmetry breaker. *)
  let ec =
    Ec.of_simple g ~colour:(fun (u, v) -> if v = u + 1 && u mod 2 = 0 then 1 else 2)
  in
  Format.printf "[EC] %a@." Ec.pp ec;

  (* §3.4: the EC 4-cycle is vertex-transitive, so its factor graph is
     one node with loops (all its symmetry in the most concise form). *)
  let fg, cls = Factor.factor ec in
  Format.printf "factor graph FG: %a@." Ec.pp fg;
  Printf.printf "class map: [%s]   loopiness of FG source: %d\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int cls)))
    (Loopy.loopiness ec);

  (* All four nodes have isomorphic universal-cover views at any radius
     (they sit above the same factor node). *)
  Printf.printf "radius-3 views of nodes 0 and 2 isomorphic: %b\n"
    (Refinement.equivalent_radius ec 0 ec 2 ~radius:3);
  Format.printf "the radius-2 view tree of node 0: %a@."
    View.pp (View.of_ec (View.arena ()) ec 0 ~radius:2);

  (* §3.5 loops as lifts: unfold one loop of the factor graph and check
     the covering map mechanically. *)
  let cov = Lift.unfold_loop fg ~loop_id:0 in
  Printf.printf "unfolded FG loop 0: %d nodes, is a covering: %b\n"
    (Ec.n cov.total) (Lift.is_covering cov);

  (* The original graph is itself a lift of FG. *)
  Printf.printf "original graph covers FG: %b\n"
    (Lift.is_covering { total = ec; base = fg; map = cls })
