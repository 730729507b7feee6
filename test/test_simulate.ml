(* Section 5: the simulation chain EC ⇐ PO ⇐ OI, Ramsey (§5.4) and
   derandomisation (Appendix B). *)

module Sim = Ld_core.Simulate
module Theorem = Ld_core.Theorem
module LB = Ld_core.Lower_bound
module Ramsey = Ld_core.Ramsey
module Derand = Ld_core.Derand
module Po_packing = Ld_matching.Po_packing
module Packing = Ld_matching.Packing
module Po_fm = Ld_fm.Po_fm
module Fm = Ld_fm.Fm
module Po = Ld_models.Po
module Ec = Ld_models.Ec
module View = Ld_cover.View
module Gen = Ld_graph.Generators
module Q = Ld_arith.Q

let loopy_po ~seed n =
  let tree = Gen.random_tree ~seed n in
  let base = Ld_models.Edge_colouring.ec_of_simple tree in
  let next = Ec.max_colour base in
  let ec =
    Ec.create ~n
      ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
      ~loops:(List.init n (fun v -> (v, next + 1)))
  in
  Po.of_ec ec

(* ---- EC ⇐ PO (§5.1) ---- *)

let ec_of_po_maximal =
  QCheck.Test.make ~count:40 ~name:"EC⇐PO: simulated PO proposal solves maximal FM"
    (QCheck.triple (QCheck.int_range 2 14) (QCheck.int_range 1 4)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec =
        Ld_models.Edge_colouring.ec_of_simple
          (Gen.random_bounded_degree ~seed n d)
      in
      let algo = Sim.ec_of_po Po_packing.proposal_algorithm in
      Fm.is_maximal_fm (algo.run ec))

let ec_of_po_node_weights =
  QCheck.Test.make ~count:30
    ~name:"EC⇐PO: node weights transfer exactly (arcs sum per edge)"
    (QCheck.pair (QCheck.int_range 2 10) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let ec =
        Ld_models.Edge_colouring.ec_of_simple (Gen.random_bounded_degree ~seed n 3)
      in
      let po = Po.of_ec ec in
      let y_po, _ = Po_packing.proposal po in
      let y_ec = (Sim.ec_of_po Po_packing.proposal_algorithm).run ec in
      List.for_all
        (fun v -> Q.equal (Fm.node_weight y_ec v) (Po_fm.node_weight y_po v))
        (List.init (Ec.n ec) Fun.id))

let theorem_against_po () =
  match Theorem.against_po ~delta:5 Po_packing.proposal_algorithm with
  | LB.Certified certs -> Alcotest.(check int) "levels" 4 (List.length certs)
  | LB.Refuted (_, f) ->
    Alcotest.failf "unexpected refutation: %s" f.LB.fail_note

(* ---- PO ⇐ OI (§5.3) ---- *)

let simulated_proposal_exact =
  QCheck.Test.make ~count:15
    ~name:"PO⇐OI: simulating the proposal rule = direct truncated run"
    (QCheck.triple (QCheck.int_range 2 7) (QCheck.int_range 0 3)
       (QCheck.int_range 0 999))
    (fun (n, rounds, seed) ->
      let g = loopy_po ~seed n in
      let direct, _ = Po_packing.proposal ~truncate:rounds g in
      let simulated = (Sim.po_of_oi (Sim.proposal_rule ~rounds)).run g in
      Po_fm.equal direct simulated)

let rank_rule_feasible_and_lift_invariant =
  QCheck.Test.make ~count:20
    ~name:"PO⇐OI: the rank-weighted OI rule is feasible and consistent on loopy graphs"
    (QCheck.pair (QCheck.int_range 1 7) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      (* Consistency (endpoint agreement and equal loop-dart answers) is
         asserted inside po_of_oi — reaching a feasible result means the
         homogeneous order made the rule's answers agree. *)
      let g = loopy_po ~seed n in
      Po_fm.is_fm ((Sim.po_of_oi Sim.rank_weighted_rule).run g))

let ordered_view_ranks_are_permutation =
  QCheck.Test.make ~count:30 ~name:"ordered views carry a permutation rank"
    (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_po ~seed n in
      let ov = Sim.ordered_view g (seed mod n) ~radius:2 in
      let sorted = List.sort Int.compare (Array.to_list ov.ov_rank) in
      List.equal Int.equal sorted (List.init (Po.n ov.ov_graph) Fun.id))

let view_po_matches_po_structure () =
  (* A directed loop unfolds through both darts. *)
  let g = Po.create ~n:1 ~arcs:[] ~loops:[ (0, 1) ] in
  let arena = View.arena () in
  let v = View.of_po arena g 0 ~radius:2 in
  Alcotest.(check int) "two branches at root" 2 (List.length v.View.branches);
  Alcotest.(check int) "size" 5 (View.size v);
  (* Against the 3-cycle lift: views agree. *)
  let c3 = Po.create ~n:3 ~arcs:[ (0, 1, 1); (1, 2, 1); (2, 0, 1) ] ~loops:[] in
  Alcotest.(check bool) "lift view equal" true
    (View.equal (View.of_po arena c3 0 ~radius:2) v)

let oi_rule_refuted () =
  (* A small-radius OI rule cannot be correct: the adversary finds the
     witness through both simulation layers. *)
  match Theorem.against_oi ~delta:4 (Sim.proposal_rule ~rounds:2) with
  | LB.Certified _ -> Alcotest.fail "a 2-round OI rule cannot be certified"
  | LB.Refuted (_, f) ->
    Alcotest.(check bool) "violations recorded" true (f.LB.fail_violations <> [])

(* ---- Ramsey (§5.4) ---- *)

let ramsey_finds_parity_class () =
  (* An indicator that depends on identifier parities becomes constant
     (order-invariant) on a single-parity identifier set. *)
  let indicator ids =
    [|
      ids.(0) mod 2 = 0; ids.(1) mod 2 = 0; (ids.(0) + ids.(2)) mod 2 = 0;
    |]
  in
  match
    Ramsey.order_invariant_identifiers
      ~universe:(List.init 20 Fun.id)
      ~nodes:3 ~indicator ~size:6
  with
  | None -> Alcotest.fail "no monochromatic identifier set found"
  | Some ids ->
    Alcotest.(check int) "size" 6 (List.length ids);
    let patterns =
      List.map
        (fun t -> indicator (Array.of_list t))
        (List.filteri (fun i _ -> i < 10)
           (List.concat_map
              (fun a ->
                List.concat_map
                  (fun b ->
                    List.filter_map
                      (fun c -> if a < b && b < c then Some [ a; b; c ] else None)
                      ids)
                  ids)
              ids))
    in
    match patterns with
    | [] -> Alcotest.fail "no tuples"
    | p :: rest -> List.iter (fun q -> Alcotest.(check (array bool)) "constant" p q) rest

let ramsey_no_subset_when_impossible () =
  (* A colouring injective on tuples admits no monochromatic pair set. *)
  let colour t = List.fold_left (fun acc x -> (acc * 100) + x) 0 t in
  Alcotest.(check bool) "none" true
    (Ramsey.monochromatic_subset ~universe:(List.init 8 Fun.id) ~arity:2 ~colour
       ~size:3
    = None)

let sparsify_spacing () =
  let j = Ramsey.sparsify ~gap:2 (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "every third" [ 0; 3; 6; 9 ] j

let relabelling_stability () =
  (* Order-invariant run: stable. Value-dependent run: not. *)
  Alcotest.(check bool) "order-invariant stable" true
    (Ramsey.relabelling_stable ~ids:[ 3; 7; 20; 41 ] ~nodes:2
       ~run:(fun ids -> ids.(0) < ids.(1))
       ~equal:( = ));
  Alcotest.(check bool) "parity-dependent unstable" false
    (Ramsey.relabelling_stable ~ids:[ 3; 4; 7; 10 ] ~nodes:2
       ~run:(fun ids -> (ids.(0) + ids.(1)) mod 2)
       ~equal:( = ))

(* ---- Derandomisation (Appendix B) ---- *)

let ii_correct idg ~seed =
  try
    let r = Ld_matching.Israeli_itai.run ~seed ~max_rounds:12 idg in
    Ld_matching.Israeli_itai.is_maximal (Ld_models.Labelled.Id.graph idg) r
  with Failure _ -> false

let derand_enumerates_graphs () =
  Alcotest.(check int) "graphs over 3 ids" 17
    (List.length (Derand.all_id_graphs [ 1; 2; 3 ]));
  Alcotest.(check int) "graphs over 4 ids" 112
    (List.length (Derand.all_id_graphs [ 1; 2; 3; 4 ]))

let derand_finds_rho () =
  match
    Derand.find_seed ~ids:[ 2; 5; 11; 17 ] ~seeds:(List.init 200 Fun.id)
      ~correct:ii_correct
  with
  | None -> Alcotest.fail "Lemma 10 search failed"
  | Some (seed, _) ->
    (* Recorded before Israeli–Itai moved onto the packed core. *)
    Alcotest.(check int) "first good seed" 0 seed;
    (* Re-verify the winning assignment independently. *)
    List.iter
      (fun idg -> Alcotest.(check bool) "correct" true (ii_correct idg ~seed))
      (Derand.all_id_graphs [ 2; 5; 11; 17 ])

let () =
  Alcotest.run "simulate"
    [
      ( "ec-of-po",
        [
          QCheck_alcotest.to_alcotest ec_of_po_maximal;
          QCheck_alcotest.to_alcotest ec_of_po_node_weights;
          Alcotest.test_case "theorem vs PO proposal" `Quick theorem_against_po;
        ] );
      ( "po-of-oi",
        [
          QCheck_alcotest.to_alcotest simulated_proposal_exact;
          QCheck_alcotest.to_alcotest rank_rule_feasible_and_lift_invariant;
          QCheck_alcotest.to_alcotest ordered_view_ranks_are_permutation;
          Alcotest.test_case "po view trees" `Quick view_po_matches_po_structure;
          Alcotest.test_case "small OI rule refuted" `Quick oi_rule_refuted;
        ] );
      ( "ramsey",
        [
          Alcotest.test_case "parity class found" `Quick ramsey_finds_parity_class;
          Alcotest.test_case "impossible detected" `Quick ramsey_no_subset_when_impossible;
          Alcotest.test_case "sparsify" `Quick sparsify_spacing;
          Alcotest.test_case "relabelling stability" `Quick relabelling_stability;
        ] );
      ( "derand",
        [
          Alcotest.test_case "graph enumeration" `Quick derand_enumerates_graphs;
          Alcotest.test_case "Lemma 10 search" `Quick derand_finds_rho;
        ] );
    ]
