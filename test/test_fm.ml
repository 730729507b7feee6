(* Fractional matchings: checkers, propagation, maximum weight, greedy. *)

module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Propagation = Ld_fm.Propagation
module Maximum = Ld_fm.Maximum
module HK = Ld_fm.Hopcroft_karp
module Greedy = Ld_fm.Greedy
module Lift = Ld_cover.Lift
module G = Ld_graph.Graph
module Gen = Ld_graph.Generators

let q = Q.of_ints

(* The paper's §1.2 example graph: a path 0-1-2-3-4 (5 nodes). *)
let path5_ec =
  Ec.create ~n:5
    ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 4, 2) ]
    ~loops:[]

let example_maximal () =
  (* §1.2 flavour: on the 5-cycle, the all-1/2 assignment saturates every
     node, hence is both maximal and of maximum weight 5/2; on the
     5-path, {1, 0, 0, 1} is maximal (each zero edge has a saturated
     endpoint) with total 2 = ν_f. *)
  let c5 =
    Ec.create ~n:5
      ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 4, 2); (4, 0, 3) ]
      ~loops:[]
  in
  let y =
    Fm.create c5 ~edge_w:(Array.make 5 Q.half) ~loop_w:[||]
  in
  Alcotest.(check bool) "feasible" true (Fm.is_fm y);
  Alcotest.(check bool) "maximal" true (Fm.is_maximal_fm y);
  Alcotest.(check string) "total" "5/2" (Q.to_string (Fm.total y));
  Alcotest.(check string) "nu_f" "5/2"
    (Q.to_string (Maximum.value (Ec.to_simple c5)));
  let yp =
    Fm.create path5_ec ~edge_w:[| Q.one; Q.zero; Q.zero; Q.one |] ~loop_w:[||]
  in
  Alcotest.(check bool) "path maximal" true (Fm.is_maximal_fm yp);
  (* a maximal FM that is NOT of maximum weight: saturate the middle *)
  let ym =
    Fm.create path5_ec ~edge_w:[| Q.zero; Q.one; Q.zero; Q.half |] ~loop_w:[||]
  in
  Alcotest.(check bool) "middle-saturating not maximal (edge 3 endpoints open)"
    false (Fm.is_maximal_fm ym)

let violations_detected () =
  let y_over =
    Fm.create path5_ec ~edge_w:[| Q.one; Q.half; Q.zero; Q.zero |] ~loop_w:[||]
  in
  Alcotest.(check bool) "overload at node 1" true
    (List.mem (Fm.Node_overloaded 1) (Fm.validity_violations y_over));
  let y_neg =
    Fm.create path5_ec ~edge_w:[| q (-1) 2; Q.zero; Q.zero; Q.zero |] ~loop_w:[||]
  in
  Alcotest.(check bool) "negative weight" true
    (List.mem (Fm.Weight_out_of_range (`Edge 0)) (Fm.validity_violations y_neg));
  let y_nonmax = Fm.zero path5_ec in
  Alcotest.(check int) "all edges unsaturated" 4
    (List.length (Fm.maximality_violations y_nonmax));
  let y_loop = Fm.zero (Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1) ]) in
  Alcotest.(check bool) "unsaturated loop flagged" true
    (List.mem (Fm.Unsaturated_loop 0) (Fm.maximality_violations y_loop))

(* The fused hot-path checker must agree with the two-pass pair on
   arbitrary (including infeasible) weight assignments: same
   violations, same order. *)
let fused_checker_matches_pair =
  QCheck.Test.make ~count:120
    ~name:"feasibility_violations = validity @ maximality (order included)"
    (QCheck.triple (QCheck.int_range 2 12) (QCheck.int_range 1 4)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = Gen.random_bounded_degree ~seed n d in
      let base = Ld_models.Edge_colouring.ec_of_simple g in
      let next = Ec.max_colour base in
      let ec =
        Ec.create ~n
          ~edges:
            (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
          ~loops:(List.init n (fun v -> (v, next + 1)))
      in
      (* deterministic, deliberately messy weights: out of range,
         overloading, and unsaturated cases all occur across seeds *)
      let weight i = q ((seed + (3 * i)) mod 7 - 1) 4 in
      let y =
        Fm.create ec
          ~edge_w:(Array.init (Ec.num_edges ec) weight)
          ~loop_w:(Array.init (Ec.num_loops ec) (fun i -> weight (i + 13)))
      in
      let feasibility = Fm.feasibility_violations y in
      (* ld-lint: allow poly-compare — differential check over int-payload violations *)
      feasibility = Fm.validity_violations y @ Fm.maximality_violations y)

let node_weight_loop_counts_once () =
  let g = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2) ] in
  let y = Fm.create g ~edge_w:[||] ~loop_w:[| Q.half; q 1 4 |] in
  Alcotest.(check string) "y[v]" "3/4" (Q.to_string (Fm.node_weight y 0));
  Alcotest.(check bool) "not saturated" false (Fm.is_saturated y 0)

let greedy_always_maximal =
  QCheck.Test.make ~count:80 ~name:"greedy maximal FM is feasible and maximal"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 5)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = Gen.random_bounded_degree ~seed n d in
      let ec = Ld_models.Edge_colouring.ec_of_simple g in
      Fm.is_maximal_fm (Greedy.maximal_fm ec))

let greedy_ratio_at_least_half =
  QCheck.Test.make ~count:60 ~name:"maximal FM is a 1/2-approximation (§1.2)"
    (QCheck.pair (QCheck.int_range 2 16) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.random_bounded_degree ~seed n 4 in
      let ec = Ld_models.Edge_colouring.ec_of_simple g in
      let y = Greedy.maximal_fm ec in
      Q.compare (Maximum.ratio y) Q.half >= 0)

let hk_matches_brute_force =
  QCheck.Test.make ~count:60 ~name:"ν_f via Hopcroft–Karp = brute force (König)"
    (QCheck.pair (QCheck.int_range 2 8) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.random_gnp ~seed n 0.4 in
      (* For bipartite double covers we test ν_f consistency instead:
         2·ν_f must be between ν and 2ν, and ν_f >= ν. *)
      let nu = HK.brute_force_size g in
      let nu_f = Maximum.value g in
      Q.compare nu_f (Q.of_int nu) >= 0
      && Q.compare nu_f (Q.mul (q 3 2) (Q.of_int (max nu 1))) <= 0
      (* ν_f <= 3/2 ν for any graph with ν >= 1 *)
      && Q.is_integer (Q.mul nu_f (Q.of_int 2)))

let maximum_witness_feasible =
  QCheck.Test.make ~count:60 ~name:"maximum FM witness is feasible, optimal"
    (QCheck.pair (QCheck.int_range 2 10) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.random_gnp ~seed n 0.5 in
      let w = Maximum.witness g in
      let slack = Array.make n Q.one in
      List.iter
        (fun (u, v, x) ->
          slack.(u) <- Q.sub slack.(u) x;
          slack.(v) <- Q.sub slack.(v) x)
        w;
      Array.for_all (fun s -> Q.sign s >= 0) slack
      && Q.equal
           (Q.sum (List.map (fun (_, _, x) -> x) w))
           (Maximum.value g))

let hk_known_values () =
  Alcotest.(check string) "path5 nu_f" "2" (Q.to_string (Maximum.value (Gen.path 5)));
  Alcotest.(check string) "C5 nu_f" "5/2" (Q.to_string (Maximum.value (Gen.cycle 5)));
  Alcotest.(check string) "K4 nu_f" "2" (Q.to_string (Maximum.value (Gen.complete 4)));
  Alcotest.(check string) "star nu_f" "1" (Q.to_string (Maximum.value (Gen.star 5)));
  Alcotest.(check string) "K33 nu_f" "3"
    (Q.to_string (Maximum.value (Gen.complete_bipartite 3 3)))

let propagation_principle =
  QCheck.Test.make ~count:60
    ~name:"Fact 3: disagreements never stop at a doubly saturated node"
    (QCheck.pair (QCheck.int_range 2 12) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      (* Two different greedy orders on a loopy tree: both fully
         saturate, so Fact 3 must hold at every node. *)
      let tree = Gen.random_tree ~seed n in
      let base = Ld_models.Edge_colouring.ec_of_simple tree in
      let next = Ec.max_colour base in
      let g =
        Ec.create ~n
          ~edges:
            (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
          ~loops:(List.init n (fun v -> (v, next + 1)))
      in
      let order1 =
        List.init (Ec.num_edges g) (fun i -> `Edge i)
        @ List.init (Ec.num_loops g) (fun i -> `Loop i)
      in
      let order2 = List.rev order1 in
      let y = Greedy.maximal_fm_in_order g order1 in
      let y' = Greedy.maximal_fm_in_order g order2 in
      List.for_all (fun v -> Propagation.holds_at ~y ~y' v) (List.init n Fun.id))

let walk_finds_loop () =
  (* Hand instance: path g--x with loops; y and y' disagree on the edge,
     so the walk from g must end at a differing loop. *)
  let g =
    Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ]
  in
  let y = Fm.create g ~edge_w:[| Q.half |] ~loop_w:[| Q.half; Q.half |] in
  let y' = Fm.create g ~edge_w:[| q 1 4 |] ~loop_w:[| q 3 4; q 3 4 |] in
  (match Ec.dart_by_colour g 0 1 with
   | None -> Alcotest.fail "dart"
   | Some first ->
     (match Propagation.walk ~y ~y' ~start:0 ~first with
      | Propagation.Loop_found { node; loop_id; trace } ->
        Alcotest.(check int) "stays at node 0" 0 node;
        Alcotest.(check int) "its loop" 0 loop_id;
        Alcotest.(check int) "trace length" 2 (List.length trace)
      | Propagation.Stuck _ -> Alcotest.fail "stuck"))

let pull_back_preserves_feasibility =
  QCheck.Test.make ~count:40 ~name:"pull-back of maximal FM along 2-lift is maximal"
    (QCheck.pair (QCheck.int_range 2 10) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~seed n in
      let base = Ld_models.Edge_colouring.ec_of_simple tree in
      let next = Ec.max_colour base in
      let g =
        Ec.create ~n
          ~edges:
            (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
          ~loops:(List.init n (fun v -> (v, next + 1)))
      in
      let y = Greedy.maximal_fm g in
      let cov = Lift.unfold_loop g ~loop_id:0 in
      let y' = Fm.pull_back cov y in
      Fm.is_maximal_fm y'
      && List.for_all
           (fun v -> Q.equal (Fm.node_weight y' v) (Fm.node_weight y cov.map.(v)))
           (List.init (Ec.n cov.total) Fun.id))

let greedy_matching_maximal =
  QCheck.Test.make ~count:60 ~name:"greedy maximal matching is maximal"
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.random_gnp ~seed n 0.3 in
      Greedy.is_maximal_matching g (Greedy.maximal_matching g))

let pull_back_composes =
  QCheck.Test.make ~count:30
    ~name:"pull-back along composed coverings = composed pull-backs"
    (QCheck.pair (QCheck.int_range 2 8) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~seed n in
      let base = Ld_models.Edge_colouring.ec_of_simple tree in
      let next = Ec.max_colour base in
      let g =
        Ec.create ~n
          ~edges:
            (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
          ~loops:(List.init n (fun v -> (v, next + 1)))
      in
      let c1 = Lift.unfold_loop g ~loop_id:0 in
      let c2 = Lift.unfold_loop c1.total ~loop_id:0 in
      let composed = Lift.compose c1 c2 in
      let y = Greedy.maximal_fm g in
      Fm.equal (Fm.pull_back composed y) (Fm.pull_back c2 (Fm.pull_back c1 y)))

let algorithms_agree_on_simple_lift =
  QCheck.Test.make ~count:25
    ~name:"greedy packing on the 1-factorisation lift = pulled-back base run"
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~seed n in
      let base = Ld_models.Edge_colouring.ec_of_simple tree in
      let next = Ec.max_colour base in
      let g =
        Ec.create ~n
          ~edges:
            (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
          ~loops:(List.init n (fun v -> (v, next + 1 + (v mod 2))))
      in
      let cov = Ld_cover.Lift.simple_lift g in
      let on_lift = Ld_matching.Packing.greedy_by_colour cov.total in
      Fm.equal on_lift (Fm.pull_back cov (Ld_matching.Packing.greedy_by_colour g)))

(* ---- Vertex cover from edge packing ([3]/[4]) ---- *)

let vc_known_values () =
  let module VC = Ld_fm.Vertex_cover in
  Alcotest.(check int) "path5 tau" 2 (VC.minimum_size (Gen.path 5));
  Alcotest.(check int) "C5 tau" 3 (VC.minimum_size (Gen.cycle 5));
  Alcotest.(check int) "star tau" 1 (VC.minimum_size (Gen.star 6));
  Alcotest.(check int) "K5 tau" 4 (VC.minimum_size (Gen.complete 5));
  Alcotest.(check int) "K34 tau" 3 (VC.minimum_size (Gen.complete_bipartite 3 4))

let vc_two_approx =
  QCheck.Test.make ~count:60
    ~name:"saturated nodes of a maximal FM: valid vertex cover, ratio <= 2"
    (QCheck.triple (QCheck.int_range 2 14) (QCheck.int_range 1 4)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let module VC = Ld_fm.Vertex_cover in
      let g = Gen.random_bounded_degree ~seed n d in
      let ec = Ld_models.Edge_colouring.ec_of_simple g in
      let y = Greedy.maximal_fm ec in
      let cover = VC.of_fm y in
      VC.is_vertex_cover ec cover
      && (G.m g = 0 || Q.compare (VC.approximation_ratio y) (Q.of_int 2) <= 0))

let vc_rejects_non_cover () =
  let module VC = Ld_fm.Vertex_cover in
  let ec = Ld_models.Edge_colouring.ec_of_simple (Gen.path 3) in
  Alcotest.(check bool) "middle node covers P3" true (VC.is_vertex_cover ec [ 1 ]);
  Alcotest.(check bool) "endpoint does not" false (VC.is_vertex_cover ec [ 0 ]);
  let loopy = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1) ] in
  Alcotest.(check bool) "loop needs its node" false (VC.is_vertex_cover loopy []);
  Alcotest.(check bool) "loop covered" true (VC.is_vertex_cover loopy [ 0 ])

let () =
  Alcotest.run "fm"
    [
      ( "checkers",
        [
          Alcotest.test_case "paper example" `Quick example_maximal;
          Alcotest.test_case "violations" `Quick violations_detected;
          QCheck_alcotest.to_alcotest fused_checker_matches_pair;
          Alcotest.test_case "loop counts once" `Quick node_weight_loop_counts_once;
        ] );
      ( "greedy",
        [
          QCheck_alcotest.to_alcotest greedy_always_maximal;
          QCheck_alcotest.to_alcotest greedy_ratio_at_least_half;
          QCheck_alcotest.to_alcotest greedy_matching_maximal;
        ] );
      ( "maximum",
        [
          Alcotest.test_case "known values" `Quick hk_known_values;
          QCheck_alcotest.to_alcotest hk_matches_brute_force;
          QCheck_alcotest.to_alcotest maximum_witness_feasible;
        ] );
      ( "propagation",
        [
          QCheck_alcotest.to_alcotest propagation_principle;
          Alcotest.test_case "walk finds loop" `Quick walk_finds_loop;
        ] );
      ( "lift",
        [
          QCheck_alcotest.to_alcotest pull_back_preserves_feasibility;
          QCheck_alcotest.to_alcotest pull_back_composes;
          QCheck_alcotest.to_alcotest algorithms_agree_on_simple_lift;
        ] );
      ( "vertex-cover",
        [
          Alcotest.test_case "known values" `Quick vc_known_values;
          QCheck_alcotest.to_alcotest vc_two_approx;
          Alcotest.test_case "checker" `Quick vc_rejects_non_cover;
        ] );
    ]
