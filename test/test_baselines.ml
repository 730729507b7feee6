(* The §1.1 baselines: EC greedy matching, Israeli–Itai, Cole–Vishkin,
   Panconesi–Rizzi. *)

module Mm_ec = Ld_matching.Mm_ec
module II = Ld_matching.Israeli_itai
module Cv = Ld_matching.Cole_vishkin
module PR = Ld_matching.Packed_pr
module Csr = Ld_graph.Csr
module Ec = Ld_models.Ec
module Id = Ld_models.Labelled.Id
module G = Ld_graph.Graph
module Gen = Ld_graph.Generators
module Colouring = Ld_models.Edge_colouring

(* ---- EC greedy maximal matching (§2.1: trivial in EC) ---- *)

let mm_ec_maximal =
  QCheck.Test.make ~count:60 ~name:"EC greedy matching is maximal in k rounds"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 5)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      let r = Mm_ec.greedy ec in
      Mm_ec.is_maximal ec r && r.rounds <= (2 * d) - 1)

let mm_ec_loops () =
  (* On a loopy graph, a node may match its own fiber copy: maximality
     on the multigraph means maximality on every lift. *)
  let g = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 3) ] in
  let r = Mm_ec.greedy g in
  Alcotest.(check bool) "maximal" true (Mm_ec.is_maximal g r);
  Alcotest.(check int) "edge matched (colour 1 first)" 1
    (List.length r.matched_edges)

let mm_ec_truncated_incomplete () =
  let g = Ec.create ~n:4 ~edges:[ (0, 1, 1); (2, 3, 2) ] ~loops:[] in
  let r = Mm_ec.greedy ~truncate:1 g in
  Alcotest.(check bool) "not maximal" false (Mm_ec.is_maximal g r)

(* ---- Israeli–Itai ---- *)

let ii_always_maximal =
  QCheck.Test.make ~count:40 ~name:"Israeli–Itai output is a maximal matching"
    (QCheck.triple (QCheck.int_range 1 30) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = Gen.random_bounded_degree ~seed n d in
      let r = II.run ~seed ~max_rounds:500 (Id.trivial g) in
      II.is_maximal g r)

let ii_rounds_logarithmic () =
  (* Shape check: rounds grow far slower than n (fixed degree). *)
  let rounds n =
    let g = Gen.random_bounded_degree ~seed:(n + 1) n 4 in
    (II.run ~seed:7 ~max_rounds:5000 (Id.trivial g)).rounds
  in
  let r256 = rounds 256 and r1024 = rounds 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "r(256)=%d, r(1024)=%d stay O(log n)" r256 r1024)
    true
    (r256 <= 40 && r1024 <= 50)

(* Israeli–Itai's coins are per node, seeded by [(seed, id)]: these
   values pin the draw order and the port order, recorded on the boxed
   implementation the packed front-end replaced. *)
let ii_pinned_rounds () =
  List.iter
    (fun (n, expected) ->
      let g = Gen.random_bounded_degree ~seed:(n + 3) n 4 in
      Alcotest.(check int)
        (Printf.sprintf "BASE rounds at n=%d" n)
        expected
        (II.run ~seed:5 ~max_rounds:10000 (Id.trivial g)).rounds)
    [ (16, 10); (64, 10); (256, 16); (1024, 20); (4096, 26) ]

let ii_pinned_mates () =
  let g = Gen.random_bounded_degree ~seed:11 300 6 in
  let ids = Array.init 300 (fun v -> ((v * 7919) + 13) mod 100_003) in
  let r = II.run ~seed:4 ~max_rounds:10000 (Id.create g ids) in
  let mate = function None -> "-1" | Some w -> string_of_int w in
  let mates = String.concat "," (List.map mate (Array.to_list r.mate)) in
  Alcotest.(check (pair int string)) "rounds, mates digest"
    (22, "0b628fda405e441f8b31971850e6e4ba")
    (r.rounds, Digest.to_hex (Digest.string mates))

let ii_degree_limit () =
  let star k = Id.trivial (Gen.star k) in
  Alcotest.(check bool) "degree 62 accepted" true
    (II.is_maximal (Gen.star 62) (II.run ~seed:0 ~max_rounds:100 (star 62)));
  Alcotest.check_raises "degree 63 rejected"
    (Invalid_argument "Israeli_itai: degree > 62") (fun () ->
      ignore (II.run ~seed:0 ~max_rounds:100 (star 63)))

(* ---- Cole–Vishkin ---- *)

let cv_step_properly_colours =
  QCheck.Test.make ~count:300 ~name:"CV step keeps child ≠ parent"
    (QCheck.triple (QCheck.int_range 0 100000) (QCheck.int_range 0 100000)
       (QCheck.int_range 0 100000))
    (fun (c, p, gp) ->
      (* child c with parent p, parent p with grandparent gp *)
      QCheck.assume (c <> p && p <> gp);
      Cv.step ~mine:c ~parent:p <> Cv.step ~mine:p ~parent:gp)

let cv_reduce_forest_props =
  QCheck.Test.make ~count:60 ~name:"CV reduction: < 6 colours, proper, log* speed"
    (QCheck.pair (QCheck.int_range 1 60) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~seed n in
      (* root at 0, parents toward the root *)
      let dist = G.bfs_dist tree 0 in
      let parent =
        Array.init n (fun v ->
            if v = 0 then -1
            else
              List.find (fun w -> dist.(w) = dist.(v) - 1) (G.neighbours tree v))
      in
      let init = Array.init n (fun v -> (v * 7919) + 13) in
      let colours, iters = Cv.reduce_forest ~parent ~init in
      Array.for_all (fun c -> c >= 0 && c < 6) colours
      && Array.for_all Fun.id
           (Array.mapi
              (fun v p -> p < 0 || colours.(v) <> colours.(p))
              parent)
      && iters <= Cv.iterations_for_bits (Cv.bits_needed ((n * 7919) + 13)))

let cv_helpers () =
  Alcotest.(check int) "bits 0" 1 (Cv.bits_needed 0);
  Alcotest.(check int) "bits 5" 3 (Cv.bits_needed 5);
  Alcotest.(check int) "bits 64" 7 (Cv.bits_needed 64);
  Alcotest.(check bool) "virtual parent differs" true
    (Cv.virtual_parent 0 <> 0 && Cv.virtual_parent 3 <> 3);
  Alcotest.check_raises "equal colours rejected"
    (Invalid_argument "Cole_vishkin.step: equal colours") (fun () ->
      ignore (Cv.step ~mine:5 ~parent:5));
  Alcotest.(check bool) "log* tiny" true (Cv.iterations_for_bits 3 <= 1);
  Alcotest.(check bool) "log* 62 bits small" true (Cv.iterations_for_bits 62 <= 5)

(* ---- Panconesi–Rizzi ---- *)

let csr_of = Csr.greedy

let pr_always_maximal =
  QCheck.Test.make ~count:30 ~name:"Panconesi–Rizzi output is a maximal matching"
    (QCheck.triple (QCheck.int_range 1 30) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let csr = csr_of (Gen.random_bounded_degree ~seed n d) in
      PR.is_maximal csr (fst (PR.run csr)))

let pr_rounds_shape () =
  (* rounds ≈ 6Δ + log* n + O(1): doubling Δ roughly doubles rounds,
     squaring n barely moves them. *)
  let rounds ~n ~d ~seed =
    (fst (PR.run (csr_of (Gen.random_bounded_degree ~seed n d)))).rounds
  in
  let r_d2 = rounds ~n:40 ~d:2 ~seed:1 in
  let r_d8 = rounds ~n:40 ~d:8 ~seed:1 in
  Alcotest.(check bool)
    (Printf.sprintf "Δ matters: %d -> %d" r_d2 r_d8)
    true
    (r_d8 > r_d2 + 20);
  let r_small = rounds ~n:16 ~d:4 ~seed:2 in
  let r_large = rounds ~n:256 ~d:4 ~seed:2 in
  Alcotest.(check bool)
    (Printf.sprintf "n barely matters: %d -> %d" r_small r_large)
    true
    (r_large - r_small <= 4)

let pr_path_exact () =
  let csr = csr_of (Gen.path 10) in
  let r, _ = PR.run csr in
  Alcotest.(check bool) "maximal on path" true (PR.is_maximal csr r);
  (* A maximal matching on P10 has at least 3 edges. *)
  let size =
    Array.fold_left (fun acc w -> if w >= 0 then acc + 1 else acc) 0 r.mate / 2
  in
  Alcotest.(check bool) "size >= 3" true (size >= 3)

let () =
  Alcotest.run "baselines"
    [
      ( "mm-ec",
        [
          QCheck_alcotest.to_alcotest mm_ec_maximal;
          Alcotest.test_case "loops" `Quick mm_ec_loops;
          Alcotest.test_case "truncated" `Quick mm_ec_truncated_incomplete;
        ] );
      ( "israeli-itai",
        [
          QCheck_alcotest.to_alcotest ii_always_maximal;
          Alcotest.test_case "log-n rounds" `Slow ii_rounds_logarithmic;
          Alcotest.test_case "pinned BASE rounds" `Quick ii_pinned_rounds;
          Alcotest.test_case "pinned mates, permuted ids" `Quick ii_pinned_mates;
          Alcotest.test_case "degree limit" `Quick ii_degree_limit;
        ] );
      ( "cole-vishkin",
        [
          QCheck_alcotest.to_alcotest cv_step_properly_colours;
          QCheck_alcotest.to_alcotest cv_reduce_forest_props;
          Alcotest.test_case "helpers" `Quick cv_helpers;
        ] );
      ( "panconesi-rizzi",
        [
          QCheck_alcotest.to_alcotest pr_always_maximal;
          Alcotest.test_case "rounds shape" `Slow pr_rounds_shape;
          Alcotest.test_case "path" `Quick pr_path_exact;
        ] );
    ]
