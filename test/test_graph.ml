(* Simple-graph substrate and generators. *)

module G = Ld_graph.Graph
module Gen = Ld_graph.Generators

let create_validation () =
  Alcotest.check_raises "self-loop rejected"
    (Invalid_argument "Graph.create: self-loop") (fun () ->
      ignore (G.create 3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Graph.create: duplicate edge") (fun () ->
      ignore (G.create 3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: endpoint out of range")
    (fun () -> ignore (G.create 2 [ (0, 2) ]))

let basics () =
  let g = G.create 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "n" 4 (G.n g);
  Alcotest.(check int) "m" 4 (G.m g);
  Alcotest.(check (list int)) "neighbours 0" [ 1; 3 ] (G.neighbours g 0);
  Alcotest.(check int) "max degree" 2 (G.max_degree g);
  Alcotest.(check bool) "has edge" true (G.has_edge g 2 3);
  Alcotest.(check bool) "no edge" false (G.has_edge g 0 2)

let bfs_on_path () =
  let g = Gen.path 6 in
  let d = G.bfs_dist g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] d

let bfs_on_cycle () =
  let g = Gen.cycle 6 in
  let d = G.bfs_dist g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 2; 1 |] d

let components () =
  let g = G.create 5 [ (0, 1); (2, 3) ] in
  let _, k = G.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "not connected" false (G.is_connected g);
  Alcotest.(check bool) "path connected" true (G.is_connected (Gen.path 4))

let disjoint_union () =
  let g = G.disjoint_union (Gen.path 3) (Gen.cycle 3) in
  Alcotest.(check int) "nodes" 6 (G.n g);
  Alcotest.(check int) "edges" 5 (G.m g);
  Alcotest.(check bool) "shifted edge" true (G.has_edge g 3 4)

let induced_subgraph () =
  let g = Gen.cycle 5 in
  let sub, names = G.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "induced nodes" 3 (G.n sub);
  Alcotest.(check int) "induced edges" 2 (G.m sub);
  Alcotest.(check (array int)) "names" [| 0; 1; 2 |] names

let isomorphism () =
  let c5 = Gen.cycle 5 in
  let c5' = G.relabel c5 [| 3; 1; 4; 0; 2 |] in
  Alcotest.(check bool) "cycle relabelled" true (G.is_isomorphic_small c5 c5');
  Alcotest.(check bool) "cycle vs path" false
    (G.is_isomorphic_small c5 (Gen.path 5));
  Alcotest.(check bool) "k33 vs c6" false
    (G.is_isomorphic_small (Gen.complete_bipartite 3 3) (Gen.cycle 6))

let generator_shapes () =
  Alcotest.(check int) "star degree" 7 (G.max_degree (Gen.star 7));
  Alcotest.(check int) "complete m" 10 (G.m (Gen.complete 5));
  Alcotest.(check int) "k23 m" 6 (G.m (Gen.complete_bipartite 2 3));
  Alcotest.(check int) "grid m" 12 (G.m (Gen.grid 3 3));
  Alcotest.(check int) "hypercube m" 32 (G.m (Gen.hypercube 4));
  Alcotest.(check int) "hypercube degree" 4 (G.max_degree (Gen.hypercube 4));
  Alcotest.(check int) "binary tree n" 15 (G.n (Gen.binary_tree 3));
  let cat = Gen.caterpillar ~spine:4 ~legs:2 in
  Alcotest.(check int) "caterpillar n" 12 (G.n cat);
  Alcotest.(check int) "caterpillar degree" 4 (G.max_degree cat);
  let sp = Gen.spider ~delta:5 ~tail:3 in
  Alcotest.(check int) "spider n" 16 (G.n sp);
  Alcotest.(check int) "spider degree" 5 (G.max_degree sp)

let random_tree_is_tree =
  QCheck.Test.make ~count:100 ~name:"Prüfer decoding yields spanning trees"
    (QCheck.pair (QCheck.int_range 1 40) (QCheck.int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~seed n in
      G.n g = n && G.m g = n - 1 && G.is_connected g)

let random_regular_is_regular =
  QCheck.Test.make ~count:50 ~name:"configuration model yields d-regular graphs"
    (QCheck.pair (QCheck.int_range 2 5) (QCheck.int_range 0 1000))
    (fun (d, seed) ->
      (* keep the graph sparse enough for the configuration model to
         find a simple pairing reliably *)
      let n = if (4 * d * d) mod 2 = 0 then 4 * d else (4 * d) + 1 in
      let g = Gen.random_regular ~seed n d in
      List.for_all (fun v -> G.degree g v = d) (List.init n Fun.id))

(* Inputs whose 5000 configuration-model pairings are all rejected:
   n = 20, d = 5 at seed 197, and the complete graph K_12. *)
let random_regular_total () =
  List.iter
    (fun (seed, n, d) ->
      let g = Gen.random_regular ~seed n d in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: %d-regular on %d nodes" seed d n)
        (List.init n (fun _ -> d))
        (List.init n (G.degree g)))
    [ (197, 20, 5); (0, 12, 11) ]

let bounded_degree_respected =
  QCheck.Test.make ~count:50 ~name:"random_bounded_degree respects the bound"
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 1000))
    (fun (d, seed) -> G.max_degree (Gen.random_bounded_degree ~seed 20 d) <= d)

let metrics_known_values () =
  let module M = Ld_graph.Metrics in
  Alcotest.(check int) "path diameter" 5 (M.diameter (Gen.path 6));
  Alcotest.(check int) "path radius" 3 (M.radius (Gen.path 6));
  Alcotest.(check int) "cycle diameter" 3 (M.diameter (Gen.cycle 6));
  Alcotest.(check (option int)) "tree girth" None (M.girth (Gen.binary_tree 3));
  Alcotest.(check (option int)) "c5 girth" (Some 5) (M.girth (Gen.cycle 5));
  Alcotest.(check (option int)) "c6 girth" (Some 6) (M.girth (Gen.cycle 6));
  Alcotest.(check (option int)) "k4 girth" (Some 3) (M.girth (Gen.complete 4));
  Alcotest.(check (option int)) "grid girth" (Some 4) (M.girth (Gen.grid 3 3));
  Alcotest.(check (option int)) "petersen-ish hypercube girth" (Some 4)
    (M.girth (Gen.hypercube 3));
  Alcotest.(check (list int)) "star degrees" [ 1; 1; 1; 3 ]
    (M.degree_sequence (Gen.star 3));
  Alcotest.(check bool) "disconnected rejected" true
    (try
       ignore (M.diameter (Ld_graph.Graph.create 2 []));
       false
     with Invalid_argument _ -> true)

let metrics_girth_vs_bruteforce =
  QCheck.Test.make ~count:50 ~name:"girth agrees with brute force on small graphs"
    (QCheck.pair (QCheck.int_range 3 8) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.random_gnp ~seed n 0.4 in
      (* brute force: shortest cycle through each edge via BFS avoiding it *)
      let brute =
        G.fold_edges
          (fun (u, v) acc ->
            (* distance from u to v without the edge (u, v) *)
            let es =
              List.filter (fun (a, b) -> not (a = u && b = v)) (G.edges g)
            in
            let g' = G.create n es in
            let d = (G.bfs_dist g' u).(v) in
            if d = max_int then acc else Stdlib.min acc (d + 1))
          max_int g
      in
      let brute = if brute = max_int then None else Some brute in
      Option.equal Int.equal (Ld_graph.Metrics.girth g) brute)

(* ---- coloured CSR: generators, greedy colouring, mirror ---- *)

module Csr = Ld_graph.Csr

let perm_regular_wellformed =
  QCheck.Test.make ~count:50
    ~name:"perm_regular is simple, bounded and deterministic"
    (QCheck.pair (QCheck.int_range 1 3) (QCheck.int_range 0 1000))
    (fun (half_d, seed) ->
      let d = 2 * half_d in
      let n = 8 * d in
      let g = Csr.greedy (Gen.perm_regular ~seed n d) in
      Csr.validate g;
      Csr.max_degree g <= d
      && Csr.equal g (Csr.greedy (Gen.perm_regular ~seed n d)))

let stream_biregular_tree_shape () =
  let g = Gen.stream_biregular_tree ~d:3 ~delta:5 200 in
  Csr.validate g;
  Alcotest.(check int) "n" 200 (Csr.n g);
  Alcotest.(check bool) "tree" true (Csr.m g = Csr.n g - 1);
  Alcotest.(check bool) "delta respected" true (Csr.max_degree g <= 5);
  Alcotest.(check bool)
    "colours within max d delta" true
    (Csr.max_colour g <= 5);
  Alcotest.(check bool) "connected" true (G.is_connected (Csr.to_graph g))

(* The stored [Csr.mirror] over four families (segments built by
   [Graph.of_packed], through [Graph.create], and in the tree's own
   layout): an involution pairing each dart with the far end's dart
   back, of the same colour, which [Csr.validate] accepts. Deleting
   either dart of an edge, or swapping two darts of a node, makes
   [Graph.mirror] raise, and [Csr.validate] rejects those records, which
   still carry the old mirror. It also rejects the intact graph with two
   mirror entries swapped or the mirror cut short. *)
let coloured_csr (family, n, seed) =
  match family with
  | 0 -> Csr.greedy (Gen.random_bounded_degree ~seed n (1 + (seed mod 6)))
  | 1 -> Csr.greedy (Gen.perm_regular ~seed (Stdlib.max n 8) (2 * (1 + (seed mod 3))))
  | 2 -> Gen.stream_biregular_tree ~d:(2 + (seed mod 3)) ~delta:(2 + (seed mod 5)) n
  | _ -> Csr.greedy (Gen.random_gnp ~seed n (float_of_int (1 + (seed mod 5)) /. 10.))

(* [g] without dart [d'] (of node [w]): [d'] goes from [w]'s segment. *)
let drop_dart g ~w d' =
  let remove a =
    Array.append (Array.sub a 0 d') (Array.sub a (d' + 1) (Array.length a - d' - 1))
  in
  {
    g with
    Csr.row = Array.mapi (fun v r -> if v > w then r - 1 else r) g.Csr.row;
    endpoint = remove g.Csr.endpoint;
    colour = remove g.Csr.colour;
  }

(* [a] with entries [i] and [j] swapped. *)
let swapped a i j =
  let a = Array.copy a in
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x;
  a

(* [g] with darts [d] and [d + 1] of one node swapped. *)
let swap_darts g d =
  {
    g with
    Csr.endpoint = swapped g.Csr.endpoint d (d + 1);
    colour = swapped g.Csr.colour d (d + 1);
  }

let mirror_pairs_darts =
  QCheck.Test.make ~count:100 ~name:"Csr.mirror pairs darts; asymmetry raises"
    (QCheck.triple (QCheck.int_range 0 3) (QCheck.int_range 1 60)
       (QCheck.int_range 0 1000))
    (fun input ->
      let g = coloured_csr input in
      let { Csr.row; endpoint; colour; _ } = g in
      let mirror = Csr.mirror g in
      let paired = ref true in
      for v = 0 to g.Csr.n - 1 do
        for d = row.(v) to row.(v + 1) - 1 do
          let d' = mirror.(d) in
          if mirror.(d') <> d || endpoint.(d') <> v || colour.(d') <> colour.(d)
          then paired := false
        done
      done;
      Csr.validate g;
      let nd = Array.length mirror in
      !paired
      && (nd = 0
         ||
         let _, _, seed = input in
         let d = seed mod nd in
         let raises f =
           match f () with
           | () -> false
           | exception Invalid_argument _ -> true
         in
         let rejected asym =
           raises (fun () -> ignore (G.mirror (Csr.to_graph asym)))
           && raises (fun () -> Csr.validate asym)
         in
         (* [d] loses its reverse; then [mirror.(d)] loses [d]; then
            [d] trades places with the next dart of its node *)
         let v = endpoint.(mirror.(d)) in
         rejected (drop_dart g ~w:endpoint.(d) mirror.(d))
         && rejected (drop_dart g ~w:v d)
         && (d + 1 = row.(v + 1) || rejected (swap_darts g d))
         && raises (fun () ->
                Csr.validate { g with Csr.mirror = swapped mirror d ((d + 1) mod nd) })
         && raises (fun () ->
                Csr.validate { g with Csr.mirror = Array.sub mirror 0 (nd - 1) })))

(* The tree writes each edge's two darts and their reverses together;
   its mirror must be the one [Graph.mirror] derives from the segments,
   for every (d, delta) in 1..8 and every truncation: one node, one
   edge, the middle of the second level and a random size. A tree with
   [d = 1] or [delta = 1] is a star on [max d delta + 1] nodes, and a
   larger [n] is rejected. *)
let tree_mirror_matches_graph =
  QCheck.Test.make ~count:200 ~name:"stream_biregular_tree mirror = Graph.mirror"
    (QCheck.triple (QCheck.int_range 1 8) (QCheck.int_range 1 8)
       (QCheck.int_range 1 3000))
    (fun (d, delta, n) ->
      let size = if d = 1 || delta = 1 then Stdlib.max d delta + 1 else max_int in
      List.for_all
        (fun n ->
          match Gen.stream_biregular_tree ~d ~delta n with
          | g ->
            let expected = G.mirror (Csr.to_graph g) in
            Csr.validate g;
            n <= size
            && Csr.n g = n
            && Array.length g.Csr.mirror = Array.length expected
            && Array.for_all2 Int.equal g.Csr.mirror expected
          | exception Invalid_argument _ -> n > size)
        [ 1; 2; 1 + d + (d * (delta - 1) / 2); n ])

(* ---- generator pins ----

   One MD5 per family over a few sizes and seeds: each graph's node
   count, its [edges] in order, then the row, endpoint and colour
   arrays of its greedy colouring. Recorded before [Graph.t] became a
   CSR; every seeded draw, segment order and greedy colour must stay
   byte-identical. *)
let graphs_digest gs =
  let b = Buffer.create 4096 in
  let ints a = Array.iter (Printf.bprintf b "%d ") a in
  List.iter
    (fun (g, (c : Csr.t)) ->
      Printf.bprintf b "n%d:" (G.n g);
      List.iter (fun (u, v) -> Printf.bprintf b "%d-%d " u v) (G.edges g);
      ints c.row;
      ints c.endpoint;
      ints c.colour;
      Buffer.add_char b '\n')
    gs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let greedy_pins = List.map (fun g -> (g, Csr.greedy g))

(* Leaves 0..30 give hub 100 colours 1..31, and leaves 31..61, each
   joined to hub 101 first, give it 32..62; the hub edge takes 63. *)
let spill_graph () =
  G.create 102
    ((100, 101)
    :: List.init 62 (fun x -> (x, 100))
    @ List.init 31 (fun i -> (31 + i, 101)))

let generator_families =
  [
    ( "path",
      "f99ca10c85ae49ebfca1688753c7f28c",
      greedy_pins (List.map Gen.path [ 1; 7 ]) );
    ( "cycle",
      "36e4abeb361a0bafc3689f896238f1b8",
      greedy_pins (List.map Gen.cycle [ 3; 8 ]) );
    ( "star",
      "f14d0b184ddbba5c5f42959a24d63123",
      greedy_pins (List.map Gen.star [ 0; 5 ]) );
    ( "complete",
      "fc6a3006b6e00805dd64c463d8c45a48",
      greedy_pins (List.map Gen.complete [ 1; 6; 40 ]) );
    ( "greedy above colour 62",
      "44fa66309d3f255e2b7a34f14f798ac7",
      greedy_pins [ spill_graph () ] );
    ( "complete_bipartite",
      "1abba59670b18a7367d8d2f4e8ea2599",
      greedy_pins [ Gen.complete_bipartite 2 3; Gen.complete_bipartite 4 4 ] );
    ( "grid",
      "e2de22e8a0079b191781f5b3c8f3e68a",
      greedy_pins [ Gen.grid 1 1; Gen.grid 3 4 ] );
    ( "hypercube",
      "6f648da3cbce713e2c7f2f1aedfd7749",
      greedy_pins (List.map Gen.hypercube [ 0; 4 ]) );
    ( "binary_tree",
      "c0fc33e020d9c7eaac11181d7885766b",
      greedy_pins (List.map Gen.binary_tree [ 0; 3 ]) );
    ( "caterpillar",
      "5698a82563b6bc27e594e8c5a8ac143e",
      greedy_pins
        [ Gen.caterpillar ~spine:1 ~legs:0; Gen.caterpillar ~spine:4 ~legs:2 ] );
    ( "spider",
      "62338a9b1e50af7cf125761cb3d1a1a2",
      greedy_pins [ Gen.spider ~delta:1 ~tail:1; Gen.spider ~delta:5 ~tail:3 ] );
    ( "random_tree",
      "6504ca3a2c1ea4738d2b7d61e63815e7",
      greedy_pins
        [
          Gen.random_tree ~seed:0 1;
          Gen.random_tree ~seed:3 12;
          Gen.random_tree ~seed:7 40;
        ] );
    ( "random_gnp",
      "a03f4bef089aaebf3b7257b41c0bd655",
      greedy_pins [ Gen.random_gnp ~seed:1 10 0.3; Gen.random_gnp ~seed:2 25 0.5 ] );
    ( "random_regular",
      "4db9d3d5fb44db0b61b76a89e2abcfdf",
      greedy_pins
        [ Gen.random_regular ~seed:0 12 3; Gen.random_regular ~seed:5 20 4 ] );
    (* every configuration-model pairing rejected: the circulant *)
    ( "random_regular circulant",
      "ac6d2bf478fd58a0cf5ccc97f81d2eff",
      greedy_pins
        [ Gen.random_regular ~seed:197 20 5; Gen.random_regular ~seed:0 12 11 ] );
    ( "random_bounded_degree",
      "8324ec988f041ee5a38b5a349e7adc42",
      greedy_pins
        [
          Gen.random_bounded_degree ~seed:0 0 3;
          Gen.random_bounded_degree ~seed:1 25 4;
          Gen.random_bounded_degree ~seed:2 60 7;
        ] );
    ( "perm_regular",
      "efa2ca5b8dc2d41ce452da2c9a15aa06",
      greedy_pins
        (List.map
           (fun (seed, n, d) -> Gen.perm_regular ~seed n d)
           [ (0, 16, 4); (3, 40, 6); (1, 100, 8) ]) );
    ( "stream_biregular_tree",
      "d53d6f9895cb8a9ce27de2be5bd7f665",
      List.map
        (fun (d, delta, n) ->
          let c = Gen.stream_biregular_tree ~d ~delta n in
          (Csr.to_graph c, c))
        [ (3, 8, 50); (2, 5, 31) ] );
  ]

let generator_pins () =
  List.iter
    (fun (family, digest, gs) ->
      Alcotest.(check string) family digest (graphs_digest gs))
    generator_families

let bench_families_run () =
  List.iter
    (fun (name, make) ->
      let g = make ~seed:42 ~n:16 ~delta:4 in
      Alcotest.(check bool) (name ^ " nonempty") true (G.n g > 0))
    Gen.bench_families

let () =
  Alcotest.run "graph"
    [
      ( "structure",
        [
          Alcotest.test_case "validation" `Quick create_validation;
          Alcotest.test_case "basics" `Quick basics;
          Alcotest.test_case "bfs path" `Quick bfs_on_path;
          Alcotest.test_case "bfs cycle" `Quick bfs_on_cycle;
          Alcotest.test_case "components" `Quick components;
          Alcotest.test_case "disjoint union" `Quick disjoint_union;
          Alcotest.test_case "induced" `Quick induced_subgraph;
          Alcotest.test_case "isomorphism" `Quick isomorphism;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick generator_shapes;
          QCheck_alcotest.to_alcotest random_tree_is_tree;
          QCheck_alcotest.to_alcotest random_regular_is_regular;
          Alcotest.test_case "random_regular is total" `Quick random_regular_total;
          QCheck_alcotest.to_alcotest bounded_degree_respected;
          Alcotest.test_case "bench families" `Quick bench_families_run;
          Alcotest.test_case "pinned digests" `Quick generator_pins;
        ] );
      ( "streaming csr",
        [
          QCheck_alcotest.to_alcotest perm_regular_wellformed;
          Alcotest.test_case "biregular tree" `Quick stream_biregular_tree_shape;
          QCheck_alcotest.to_alcotest mirror_pairs_darts;
          QCheck_alcotest.to_alcotest tree_mirror_matches_graph;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "known values" `Quick metrics_known_values;
          QCheck_alcotest.to_alcotest metrics_girth_vs_bruteforce;
        ] );
    ]
