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

(* [labels.(v)] numbers the distinct views [view v] in order of first
   occurrence. All views come from one arena, so tags identify them. *)
let view_labels view n =
  let seen = Hashtbl.create n in
  Array.init n (fun v ->
      let tag = (view v).View.tag in
      match Hashtbl.find_opt seen tag with
      | Some l -> l
      | None ->
        let l = Hashtbl.length seen in
        Hashtbl.add seen tag l;
        l)

let same_labels = Array.for_all2 Int.equal

(* Every round of [history] is the first-occurrence numbering of the
   views of that radius. *)
let history_matches_views history view n =
  Array.for_all Fun.id
    (Array.mapi
       (fun r labels -> same_labels labels (view_labels (fun v -> view v ~radius:r) n))
       history)

(* The same graph with every colour moved just under the 2^30 bound:
   keys stay distinct, so refinement labels must not change. *)
let high_colours g =
  let c = Ec.columns g in
  let lift = Array.map (fun c -> (1 lsl 30) - 64 + (c - 1)) in
  Ec.of_columns ~n:(Ec.n g)
    { c with edge_colour = lift c.edge_colour; loop_colour = lift c.loop_colour }

(* The flat CSR refinement against the list-based reference, the view
   trees with their sorted branch lists (the paper's definition). After
   r rounds, [refine_ec]/[refine_po] label the nodes by their radius-r
   view trees, numbered by first occurrence: exact labels, not just the
   partition. Moving every colour just under 2^30 changes no label. *)
let flat_refinement_matches_views =
  QCheck.Test.make ~count:60
    ~name:
      "flat CSR refinement = list-based reference view trees (exact labels, \
       all radii, EC and PO, colours near 2^30)"
    (QCheck.pair (QCheck.int_range 2 9) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let p = random_loopy_po ~seed n in
      let q = Ld_models.Po.of_ec g in
      let rounds = n + 2 in
      let arena = View.arena () in
      let ec = Refinement.refine_ec g ~rounds and pq = Refinement.refine_po q ~rounds in
      let same = Array.for_all2 same_labels in
      history_matches_views ec (View.of_ec arena g) n
      && history_matches_views (Refinement.refine_po p ~rounds) (View.of_po arena p) n
      && history_matches_views pq (View.of_po arena q) n
      && same ec (Refinement.refine_ec (high_colours g) ~rounds)
      && same pq (Refinement.refine_po (Ld_models.Po.of_ec (high_colours g)) ~rounds))

(* Cross-validation across two graphs: [equivalent_radius] and
   [first_distinguishing_radius] agree with [View.equal] on views built
   in one arena, for every node pair and radius. *)
let refinement_matches_views =
  QCheck.Test.make ~count:60
    ~name:
      "colour refinement = view-tree isomorphism (all radii, all node pairs, \
       across graphs)"
    (QCheck.pair (QCheck.int_range 2 9) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy_ec ~seed n in
      let rounds = n + 2 in
      let arena = View.arena () in
      let views h =
        Array.init (rounds + 1) (fun radius ->
            Array.init (Ec.n h) (fun v -> View.of_ec arena h v ~radius))
      in
      let gv = views g in
      let across h =
        let hv = views h in
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to Ec.n h - 1 do
            let first = ref None in
            for r = rounds downto 0 do
              let by_views = View.equal gv.(r).(u) hv.(r).(v) in
              if not by_views then first := Some r;
              if Refinement.equivalent_radius g u h v ~radius:r <> by_views then ok := false
            done;
            if
              not
                (Option.equal Int.equal !first
                   (Refinement.first_distinguishing_radius g u h v ~max_radius:rounds))
            then ok := false
          done
        done;
        !ok
      in
      across g && across (random_loopy_ec ~seed:(seed + 1) (2 + (seed mod 8))))

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

let node_range_checked () =
  (* Nodes are numbered within their own graph: [u] must be a node of
     [g] and [v] of [h], never an index into the pair. *)
  let g = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[] in
  let h = Ec.create ~n:3 ~edges:[ (0, 1, 1); (1, 2, 2) ] ~loops:[] in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (u, v) ->
      rejects
        (Printf.sprintf "equivalent_radius %d %d" u v)
        (fun () -> Refinement.equivalent_radius g u h v ~radius:2);
      rejects
        (Printf.sprintf "first_distinguishing_radius %d %d" u v)
        (fun () -> Refinement.first_distinguishing_radius g u h v ~max_radius:2))
    [ (2, 0); (-1, 0); (0, 3); (0, -1); (4, 0) ];
  (* Views check their root the same way, at every radius. *)
  let arena = View.arena () and p = Ld_models.Po.of_ec g in
  List.iter
    (fun (v, radius) ->
      rejects
        (Printf.sprintf "View.of_ec %d ~radius:%d" v radius)
        (fun () -> View.of_ec arena g v ~radius);
      rejects
        (Printf.sprintf "View.of_po %d ~radius:%d" v radius)
        (fun () -> View.of_po arena p v ~radius))
    [ (-1, 0); (2, 0); (7, 0); (-1, 2); (2, 2); (7, 2) ];
  Alcotest.(check (option int)) "last nodes accepted" (Some 1)
    (Refinement.first_distinguishing_radius g 1 h 2 ~max_radius:2)

let engine_matches_views name g ~rounds =
  let arena = View.arena () in
  if
    not
      (history_matches_views (Refinement.refine_ec g ~rounds) (View.of_ec arena g) (Ec.n g))
  then Alcotest.failf "%s: engine labels differ from the views' numbering" name

(* Colour 1 is a loop at [a]'s node and an edge at [b]'s first node;
   every node also has a colour-2 loop. With [leave], the edge's far end
   carries one more loop, so it sits in another block after round 1. *)
let loop_or_edge ~leave =
  let a = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2) ] in
  let b =
    Ec.create ~n:2 ~edges:[ (0, 1, 1) ]
      ~loops:([ (0, 2); (1, 2) ] @ if leave then [ (1, 3) ] else [])
  in
  (a, b)

let loop_vs_edge_in_block () =
  (* The edge leads into the node's own block: it reads the same
     (colour, block) as the loop does, so the views never differ. *)
  let a, b = loop_or_edge ~leave:false in
  Alcotest.(check (option int)) "never distinguished" None
    (Refinement.first_distinguishing_radius a 0 b 0 ~max_radius:6);
  for r = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "equivalent at radius %d" r)
      true
      (Refinement.equivalent_radius a 0 b 0 ~radius:r)
  done;
  let u = Ec.disjoint_union a b in
  engine_matches_views "union" u ~rounds:6;
  let h = Refinement.refine_ec u ~rounds:6 in
  Alcotest.(check bool) "one class" true (h.(6).(0) = h.(6).(1) && h.(6).(1) = h.(6).(2))

let loop_vs_edge_leaving_block () =
  (* The edge leaves the block (its far end has three darts), so the two
     nodes agree at radius 1 and differ from radius 2 on. *)
  let a, b = loop_or_edge ~leave:true in
  Alcotest.(check (option int)) "distinguished at 2" (Some 2)
    (Refinement.first_distinguishing_radius a 0 b 0 ~max_radius:6);
  Alcotest.(check bool) "equivalent at 1" true
    (Refinement.equivalent_radius a 0 b 0 ~radius:1);
  Alcotest.(check bool) "not at 2" false
    (Refinement.equivalent_radius a 0 b 0 ~radius:2);
  engine_matches_views "union" (Ec.disjoint_union a b) ~rounds:6

(* Node 0 of [a] has an edge of colour 1 and a loop of colour 2, node 0
   of [b] a loop of colour 1 and an edge of colour 2, and each node 1
   mirrors its node 0. Both universal covers are the path coloured
   1, 2, 1, 2, ...: the two nodes agree at every radius, and at round 1
   only because the descriptor is the merged colour sequence (1, 2),
   not the edges and the loops apart. The same holds with every colour
   moved just under 2^30. *)
let edge_loop_swapped () =
  let a = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ] in
  let b = Ec.create ~n:2 ~edges:[ (0, 1, 2) ] ~loops:[ (0, 1); (1, 1) ] in
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check bool) (what ^ ": equivalent at radius 1") true
        (Refinement.equivalent_radius a 0 b 0 ~radius:1);
      Alcotest.(check (option int)) (what ^ ": never distinguished") None
        (Refinement.first_distinguishing_radius a 0 b 0 ~max_radius:6);
      let u = Ec.disjoint_union a b in
      let h = Refinement.refine_ec u ~rounds:6 in
      Alcotest.(check bool) (what ^ ": one class at round 1") true
        (Array.for_all (fun l -> l = h.(1).(0)) h.(1));
      engine_matches_views what u ~rounds:6)
    [ ("small colours", a, b); ("colours near 2^30", high_colours a, high_colours b) ]

let greedy_certificates delta =
  match
    Ld_core.Lower_bound.run ~delta Ld_matching.Packing.greedy_algorithm
  with
  | Ld_core.Lower_bound.Certified certs -> certs
  | Ld_core.Lower_bound.Refuted _ -> Alcotest.failf "delta %d refuted" delta

(* The graphs the engine's leaving-dart filter targets: the adversary's
   loopy trees, where most darts are loops. Every round up to delta,
   label for label, on G, on H and on their disjoint union. *)
let thm1_graphs_match_views () =
  for delta = 3 to 8 do
    List.iter
      (fun (c : Ld_core.Lower_bound.certificate) ->
        let g = Ld_core.Lower_bound.force c.g_graph
        and h = Ld_core.Lower_bound.force c.h_graph in
        let name side = Printf.sprintf "delta %d level %d %s" delta c.level side in
        engine_matches_views (name "G") g ~rounds:delta;
        engine_matches_views (name "H") h ~rounds:delta;
        engine_matches_views (name "G+H") (Ec.disjoint_union g h) ~rounds:delta)
      (greedy_certificates delta)
  done

(* [equivalent_radius] reads both dart tables in place and groups
   members through one reused table, so a call allocates its engine's
   arrays and nothing per descriptor or per block: O(n) minor words.
   Measured: 26 words per node of the pair at the delta = 8 top level
   (128 nodes). *)
let equivalent_radius_allocation () =
  let certs = greedy_certificates 8 in
  let c = List.nth certs (List.length certs - 1) in
  let g = Ld_core.Lower_bound.force c.g_graph
  and h = Ld_core.Lower_bound.force c.h_graph in
  let n = Ec.n g + Ec.n h in
  let budget = float (32 * n) in
  let w0 = Gc.minor_words () in
  let same = Refinement.equivalent_radius g c.g_node h c.h_node ~radius:c.level in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "views agree" true same;
  if words >= budget then
    Alcotest.failf "equivalent_radius on %d nodes: %.0f minor words (budget %.0f)" n
      words budget

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
  let arena = View.arena () in
  let v1 = View.of_ec arena g 0 ~radius:1 in
  Alcotest.(check int) "radius-1 size" 3 (View.size v1);
  let v2 = View.of_ec arena g 0 ~radius:2 in
  Alcotest.(check int) "radius-2 size" 5 (View.size v2);
  Alcotest.(check int) "depth" 2 (View.depth v2);
  (* the colour-1 branch at depth 1 has only a colour-2 branch below *)
  match View.branch v2 1 with
  | None -> Alcotest.fail "missing branch"
  | Some sub ->
    Alcotest.(check bool) "banned arrival colour" true (View.branch sub 1 = None);
    Alcotest.(check bool) "other colour present" true (View.branch sub 2 <> None)

let view_arenas () =
  (* Radius 1 of a node with one loop and of a node with two loops: in
     a fresh arena each is the second cons, so their tags collide. *)
  let one = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1) ] in
  let two = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2) ] in
  let a = View.arena () and b = View.arena () in
  let v1 = View.of_ec a one 0 ~radius:1 and v2 = View.of_ec b two 0 ~radius:1 in
  Alcotest.(check int) "tags collide" v1.View.tag v2.View.tag;
  Alcotest.(check bool) "different trees of two arenas" false (View.equal v1 v2);
  Alcotest.(check bool) "isomorphic trees of two arenas" false
    (View.equal v1 (View.of_ec b one 0 ~radius:1));
  Alcotest.(check bool) "built twice in one arena" true
    (View.equal v1 (View.of_ec a one 0 ~radius:1));
  Alcotest.(check bool) "built twice in the other" true
    (View.equal v2 (View.of_ec b two 0 ~radius:1))

let view_materialise () =
  let g = random_loopy_ec ~seed:7 5 in
  let arena = View.arena () in
  let view = View.of_ec arena g 0 ~radius:3 in
  let tree = View.to_ec view in
  (* The materialised tree's root has the same radius-3 view. *)
  Alcotest.(check bool) "root view agrees" true
    (View.equal (View.of_ec arena tree 0 ~radius:3) view)

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
      let arena = View.arena () in
      let ok = ref true in
      for v = 0 to Ec.n cov.total - 1 do
        for r = 0 to 3 do
          if
            not
              (View.equal
                 (View.of_ec arena cov.total v ~radius:r)
                 (View.of_ec arena g cov.map.(v) ~radius:r))
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
          Alcotest.test_case "arenas" `Quick view_arenas;
          QCheck_alcotest.to_alcotest refinement_matches_views;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "first distinguishing radius" `Quick
            first_distinguishing_radius_works;
          Alcotest.test_case "node range checked" `Quick node_range_checked;
          Alcotest.test_case "loop vs edge inside a block" `Quick loop_vs_edge_in_block;
          Alcotest.test_case "loop vs edge leaving a block" `Quick
            loop_vs_edge_leaving_block;
          Alcotest.test_case "edge 1 loop 2 = loop 1 edge 2" `Quick edge_loop_swapped;
          Alcotest.test_case "THM1 graphs: engine = views" `Quick
            thm1_graphs_match_views;
          Alcotest.test_case "equivalent_radius allocates O(n) minor words" `Quick
            equivalent_radius_allocation;
          QCheck_alcotest.to_alcotest norris_stabilisation;
          QCheck_alcotest.to_alcotest flat_refinement_matches_views;
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
