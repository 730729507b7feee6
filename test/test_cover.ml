(* Lifts, views, refinement, factor graphs, loopiness (paper §3.4–3.5). *)

module Ec = Ld_models.Ec
module View = Ld_cover.View
module Refinement = Ld_cover.Refinement
module Lift = Ld_cover.Lift
module Factor = Ld_cover.Factor
module Loopy = Ld_cover.Loopy
module Gen = Ld_graph.Generators
module Colouring = Ld_models.Edge_colouring

let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

(* Random loopy tree-plus-loops EC graphs, the shape used in Section 4. *)
let random_loopy_ec ~seed n =
  let tree = Gen.random_tree ~seed n in
  let colour = Colouring.greedy tree in
  let base = Colouring.ec_of_simple tree in
  ignore colour;
  (* add one or two fresh-coloured loops per node *)
  let next = Ec.max_colour base in
  let rng = Random.State.make [| seed; n |] in
  let loops =
    List.concat_map
      (fun v ->
        let k = 1 + Random.State.int rng 2 in
        List.init k (fun i -> (v, next + 1 + i)))
      (List.init n Fun.id)
  in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops

(* A random oriented tree plus loops: each tree edge gets a random
   direction and the least colour free at its tail's out-darts and its
   head's in-darts, so an in-dart and an out-dart of one node often
   share a colour. *)
let random_loopy_po ~seed n =
  let tree = Gen.random_tree ~seed n in
  let rng = Random.State.make [| seed; n; 1 |] in
  let outs = Array.make n [] and ins = Array.make n [] in
  let least_free u v =
    let rec go c = if List.mem c outs.(u) || List.mem c ins.(v) then go (c + 1) else c in
    go 1
  in
  let arc (u, v) =
    let u, v = if Random.State.bool rng then (u, v) else (v, u) in
    let c = least_free u v in
    outs.(u) <- c :: outs.(u);
    ins.(v) <- c :: ins.(v);
    (u, v, c)
  in
  let arcs = List.map arc (Ld_graph.Graph.edges tree) in
  let loops =
    List.concat_map
      (fun v ->
        List.init (Random.State.int rng 2) (fun _ ->
            let c = least_free v v in
            outs.(v) <- c :: outs.(v);
            ins.(v) <- c :: ins.(v);
            (v, c)))
      (List.init n Fun.id)
  in
  Ld_models.Po.create ~n ~arcs ~loops

(* Cross-validation: refinement equivalence at radius r must coincide
   with structural equality of explicit view trees of depth r — in EC
   through [equivalent_radius], in PO through [refine_po] labels. *)
let refinement_matches_views =
  QCheck.Test.make ~count:40
    ~name:
      "colour refinement = view-tree isomorphism (all radii, all node pairs, \
       EC and PO)"
    (QCheck.pair (QCheck.int_range 2 7) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let p = random_loopy_po ~seed n in
      let labels = Refinement.refine_po p ~rounds:3 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for r = 0 to 3 do
            let by_refinement = Refinement.equivalent_radius g u g v ~radius:r in
            let by_views =
              View.equal (View.of_ec g u ~radius:r) (View.of_ec g v ~radius:r)
            in
            if by_refinement <> by_views then ok := false;
            let by_refinement = labels.(r).(u) = labels.(r).(v) in
            let by_views =
              View.equal (View.of_po p u ~radius:r) (View.of_po p v ~radius:r)
            in
            if by_refinement <> by_views then ok := false
          done
        done
      done;
      !ok)

(* The optimised flat-array refinement must agree with the list-based
   reference implementation label-for-label (not merely up to partition
   renaming): both intern descriptors by first occurrence in node
   order, so the histories are exactly equal arrays. *)
let flat_refinement_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"flat CSR refinement = list-based reference (exact labels, EC and PO)"
    (QCheck.pair (QCheck.int_range 2 9) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let rounds = n + 2 in
      let fast = Refinement.refine_ec g ~rounds in
      let slow = Refinement.refine_ec ~reference:true g ~rounds in
      let p = Ld_models.Po.of_ec g in
      let pfast = Refinement.refine_po p ~rounds in
      let pslow = Refinement.refine_po ~reference:true p ~rounds in
      (* The same graph with every colour moved just under the 2^30
         bound: keys stay distinct, so the labels must not change. *)
      let high =
        let c = Ec.columns g in
        let lift = Array.map (fun c -> (1 lsl 30) - 64 + (c - 1)) in
        Ec.of_columns ~n
          { c with edge_colour = lift c.edge_colour; loop_colour = lift c.loop_colour }
      in
      let ph = Ld_models.Po.of_ec high in
      let same = Array.for_all2 (Array.for_all2 Int.equal) in
      same fast slow && same pfast pslow
      && same fast (Refinement.refine_ec high ~rounds)
      && same fast (Refinement.refine_ec ~reference:true high ~rounds)
      && same pfast (Refinement.refine_po ph ~rounds)
      && same pfast (Refinement.refine_po ~reference:true ph ~rounds))

(* The soundness lemma behind the engine's incremental P1 checks:
   covering maps preserve universal-cover views at every radius, so a
   total node is refinement-equivalent to its base image at all radii —
   including through composed coverings. *)
let covering_preserves_views =
  QCheck.Test.make ~count:40
    ~name:"covering maps preserve views at every radius (anchor soundness)"
    (QCheck.pair (QCheck.int_range 2 7) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let cov = Lift.double g in
      let cov2 = Lift.compose cov (Lift.double cov.Lift.total) in
      let ok = ref true in
      List.iter
        (fun (c : Lift.covering) ->
          for v = 0 to Ec.n c.Lift.total - 1 do
            for r = 0 to 4 do
              if
                not
                  (Refinement.equivalent_radius c.Lift.total v c.Lift.base
                     c.Lift.map.(v) ~radius:r)
              then ok := false
            done
          done)
        [ cov; cov2 ];
      !ok)

let first_distinguishing_radius_works () =
  (* On a path with a 2-colouring, the two endpoints look alike at
     radius 0 and 1 but not deeper (one sees colour 1 first, the other
     colour 2); an endpoint and the middle differ at radius 1 already. *)
  let p = Ec.create ~n:5 ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 4, 2) ] ~loops:[] in
  Alcotest.(check (option int)) "endpoints differ at 1" (Some 1)
    (Refinement.first_distinguishing_radius p 0 p 4 ~max_radius:5);
  Alcotest.(check (option int)) "endpoint vs middle at 1" (Some 1)
    (Refinement.first_distinguishing_radius p 0 p 2 ~max_radius:5);
  Alcotest.(check (option int)) "node vs itself never" None
    (Refinement.first_distinguishing_radius p 1 p 1 ~max_radius:5);
  (* Nodes 0 and 2 of the 2-coloured 4-cycle are never distinguished. *)
  let c4 = Ec.create ~n:4 ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 0, 2) ] ~loops:[] in
  Alcotest.(check (option int)) "c4 antipodes equivalent" None
    (Refinement.first_distinguishing_radius c4 0 c4 2 ~max_radius:8)

let norris_stabilisation =
  (* Norris-flavoured sanity: the stable partition equals radius-(n+3)
     refinement equivalence — refining past stabilisation changes
     nothing. *)
  QCheck.Test.make ~count:40 ~name:"stable partition = deep-radius equivalence"
    (QCheck.pair (QCheck.int_range 2 8) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let cls = Refinement.stable_partition_ec g in
      let deep = Refinement.refine_ec g ~rounds:(n + 3) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if cls.(u) = cls.(v) <> (deep.(n + 3).(u) = deep.(n + 3).(v)) then
            ok := false
        done
      done;
      !ok)

let po_refinement_sees_orientation () =
  (* The endpoints of a single arc have different views (out vs in),
     while all nodes of a uniformly-coloured directed cycle agree. *)
  let p = Ld_models.Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[] in
  let h = Refinement.refine_po p ~rounds:2 in
  Alcotest.(check bool) "arc endpoints differ" true (h.(1).(0) <> h.(1).(1));
  let c = Ld_models.Po.create ~n:3 ~arcs:[ (0, 1, 1); (1, 2, 1); (2, 0, 1) ] ~loops:[] in
  let hc = Refinement.refine_po c ~rounds:4 in
  Alcotest.(check bool) "cycle nodes agree" true
    (hc.(4).(0) = hc.(4).(1) && hc.(4).(1) = hc.(4).(2));
  Alcotest.(check int) "cycle stable partition is trivial" 1
    (List.length
       (List.sort_uniq Int.compare (Array.to_list (Refinement.stable_partition_po c))))

let view_shapes () =
  (* A single node with two loops: radius-1 view has two branches; each
     branch unfolds into a copy of the node minus the arrival dart. *)
  let g = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2) ] in
  let v1 = View.of_ec g 0 ~radius:1 in
  Alcotest.(check int) "radius-1 size" 3 (View.size v1);
  let v2 = View.of_ec g 0 ~radius:2 in
  Alcotest.(check int) "radius-2 size" 5 (View.size v2);
  Alcotest.(check int) "depth" 2 (View.depth v2);
  (* the colour-1 branch at depth 1 has only a colour-2 branch below *)
  match View.branch v2 1 with
  | None -> Alcotest.fail "missing branch"
  | Some sub ->
    Alcotest.(check bool) "banned arrival colour" true (View.branch sub 1 = None);
    Alcotest.(check bool) "other colour present" true (View.branch sub 2 <> None)

let view_materialise () =
  let g = random_loopy_ec ~seed:7 5 in
  let view = View.of_ec g 0 ~radius:3 in
  let tree = View.to_ec view in
  (* The materialised tree's root has the same radius-3 view. *)
  Alcotest.(check bool) "root view agrees" true
    (View.equal (View.of_ec tree 0 ~radius:3) view)

let unfold_loop_is_covering () =
  let g = random_loopy_ec ~seed:3 4 in
  let cov = Lift.unfold_loop g ~loop_id:0 in
  Alcotest.(check bool) "covering" true (Lift.is_covering cov);
  Alcotest.(check int) "doubled" (2 * Ec.n g) (Ec.n cov.total);
  Alcotest.(check int) "one loop unfolded"
    ((2 * Ec.num_loops g) - 2)
    (Ec.num_loops cov.total)

let double_is_simple_covering () =
  let g = random_loopy_ec ~seed:5 4 in
  let cov = Lift.double g in
  Alcotest.(check bool) "covering" true (Lift.is_covering cov);
  Alcotest.(check int) "no loops" 0 (Ec.num_loops cov.total)

let covering_rejects_junk () =
  let g = random_loopy_ec ~seed:9 4 in
  let cov = Lift.unfold_loop g ~loop_id:0 in
  let bad = { cov with map = Array.map (fun _ -> 0) cov.map } in
  Alcotest.(check bool) "constant map not covering" false (Lift.is_covering bad)

let simple_lift_properties =
  QCheck.Test.make ~count:40
    ~name:"simple_lift: loop-free, parallel-free covering of linear size"
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let cov = Lift.simple_lift g in
      let no_parallel =
        let pairs =
          List.map
            (fun (e : Ec.edge) -> (Stdlib.min e.u e.v, Stdlib.max e.u e.v))
            (Ec.edges cov.total)
        in
        List.length (List.sort_uniq pair_compare pairs) = List.length pairs
      in
      Lift.is_covering cov
      && Ec.num_loops cov.total = 0
      && no_parallel
      && Ec.n cov.total mod Ec.n g = 0)

let one_factorisation_is_proper () =
  List.iter
    (fun f ->
      let ms = Lift.one_factorisation f in
      Alcotest.(check int) "f-1 matchings" (f - 1) (List.length ms);
      (* each matching covers 0..f-1 exactly once *)
      List.iter
        (fun m ->
          let touched = List.concat_map (fun (a, b) -> [ a; b ]) m in
          Alcotest.(check (list int)) "perfect" (List.init f Fun.id)
            (List.sort Int.compare touched))
        ms;
      (* matchings are pairwise edge-disjoint *)
      let all =
        List.concat_map
          (List.map (fun (a, b) -> (Stdlib.min a b, Stdlib.max a b)))
          ms
      in
      Alcotest.(check int) "disjoint = all of K_f" (f * (f - 1) / 2)
        (List.length (List.sort_uniq pair_compare all)))
    [ 2; 4; 6; 8; 12 ]

let simple_lift_many_loops () =
  (* A single node with 8 loops: fiber of size 10, not 2^8. *)
  let g = Ec.create ~n:1 ~edges:[] ~loops:(List.init 8 (fun c -> (0, c + 1))) in
  let cov = Lift.simple_lift g in
  Alcotest.(check bool) "covering" true (Lift.is_covering cov);
  Alcotest.(check int) "linear size" 10 (Ec.n cov.total);
  Alcotest.(check int) "no loops" 0 (Ec.num_loops cov.total)

let compose_coverings () =
  let g = random_loopy_ec ~seed:11 3 in
  let c1 = Lift.unfold_loop g ~loop_id:0 in
  let c2 = Lift.unfold_loop c1.total ~loop_id:0 in
  let c = Lift.compose c1 c2 in
  Alcotest.(check bool) "composite covering" true (Lift.is_covering c);
  Alcotest.(check int) "4x" (4 * Ec.n g) (Ec.n c.total)

let factor_of_vertex_transitive () =
  (* A cycle with all-distinct... use the 2-coloured 4-cycle: vertex
     transitive, so the factor graph is a single node with loops
     (paper: "in the extreme case when G is vertex-transitive, FG
     consists of just one node and some loops"). *)
  let c4 =
    Ec.create ~n:4 ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 0, 2) ] ~loops:[]
  in
  let fg, cls = Factor.factor c4 in
  Alcotest.(check int) "single class" 1 (Ec.n fg);
  Alcotest.(check int) "two loops" 2 (Ec.num_loops fg);
  Alcotest.(check bool) "covering" true
    (Lift.is_covering { total = c4; base = fg; map = cls })

let factor_identity_when_rigid () =
  (* A path with distinct colours is rigid: its own factor. *)
  let p = Ec.create ~n:3 ~edges:[ (0, 1, 1); (1, 2, 2) ] ~loops:[] in
  Alcotest.(check bool) "own factor" true (Factor.is_own_factor p);
  let fg, _ = Factor.factor p in
  Alcotest.(check int) "3 classes" 3 (Ec.n fg)

let factor_always_covers =
  QCheck.Test.make ~count:60 ~name:"factor quotient is always a covering map"
    (QCheck.pair (QCheck.int_range 2 9) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let fg, cls = Factor.factor g in
      Lift.is_covering { total = g; base = fg; map = cls })

let loopiness_measures () =
  let g0 = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check int) "3-loopy" 3 (Loopy.loopiness g0);
  let p = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2) ] in
  Alcotest.(check int) "not loopy" 0 (Loopy.loopiness p);
  Alcotest.(check bool) "is_loopy" true (Loopy.is_loopy g0);
  (* The lift of a loopy graph is as loopy: unfold one loop of a 2-loopy
     single node; every node of the 2-lift keeps 1 loop, and the factor
     graph recovers loopiness 1 at least. *)
  let g = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2) ] in
  let cov = Lift.unfold_loop g ~loop_id:0 in
  Alcotest.(check bool) "lift still loopy" true (Loopy.is_loopy cov.total)

let lift_preserves_views =
  QCheck.Test.make ~count:40
    ~name:"covering maps preserve universal-cover views (condition (2))"
    (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let cov = Lift.unfold_loop g ~loop_id:0 in
      let ok = ref true in
      for v = 0 to Ec.n cov.total - 1 do
        for r = 0 to 3 do
          if
            not
              (View.equal
                 (View.of_ec cov.total v ~radius:r)
                 (View.of_ec g cov.map.(v) ~radius:r))
          then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "cover"
    [
      ( "views",
        [
          Alcotest.test_case "shapes" `Quick view_shapes;
          Alcotest.test_case "materialise" `Quick view_materialise;
          QCheck_alcotest.to_alcotest refinement_matches_views;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "first distinguishing radius" `Quick
            first_distinguishing_radius_works;
          QCheck_alcotest.to_alcotest norris_stabilisation;
          QCheck_alcotest.to_alcotest flat_refinement_matches_reference;
          QCheck_alcotest.to_alcotest covering_preserves_views;
          Alcotest.test_case "po orientation" `Quick po_refinement_sees_orientation;
        ] );
      ( "lifts",
        [
          Alcotest.test_case "unfold loop" `Quick unfold_loop_is_covering;
          Alcotest.test_case "double" `Quick double_is_simple_covering;
          Alcotest.test_case "reject junk" `Quick covering_rejects_junk;
          Alcotest.test_case "compose" `Quick compose_coverings;
          QCheck_alcotest.to_alcotest simple_lift_properties;
          Alcotest.test_case "one-factorisation" `Quick one_factorisation_is_proper;
          Alcotest.test_case "simple_lift many loops" `Quick simple_lift_many_loops;
          QCheck_alcotest.to_alcotest lift_preserves_views;
        ] );
      ( "factor",
        [
          Alcotest.test_case "vertex transitive" `Quick factor_of_vertex_transitive;
          Alcotest.test_case "rigid path" `Quick factor_identity_when_rigid;
          QCheck_alcotest.to_alcotest factor_always_covers;
          Alcotest.test_case "loopiness" `Quick loopiness_measures;
        ] );
    ]
