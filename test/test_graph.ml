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

(* ---- streaming CSR generators (differential vs the list twins) ---- *)

module Csr = Ld_graph.Csr
module Colouring = Ld_models.Edge_colouring

(* The reference CSR: list-based generator + greedy edge colouring,
   converted through the neighbour-order path. *)
let reference_csr g = Csr.of_graph g ~colour:(Colouring.greedy g)

let stream_bounded_degree_identical =
  QCheck.Test.make ~count:50
    ~name:"stream_bounded_degree is byte-identical to the list twin"
    (QCheck.triple (QCheck.int_range 0 25) (QCheck.int_range 0 6)
       (QCheck.int_range 0 1000))
    (fun (n, d, seed) ->
      let s = Gen.stream_bounded_degree ~seed n d in
      Csr.validate s;
      Csr.equal s (reference_csr (Gen.random_bounded_degree ~seed n d)))

let stream_perm_regular_wellformed =
  QCheck.Test.make ~count:50
    ~name:"stream_perm_regular is simple, bounded and deterministic"
    (QCheck.pair (QCheck.int_range 1 3) (QCheck.int_range 0 1000))
    (fun (half_d, seed) ->
      let d = 2 * half_d in
      let n = 8 * d in
      let g = Gen.stream_perm_regular ~seed n d in
      Csr.validate g;
      Csr.max_degree g <= d && Csr.equal g (Gen.stream_perm_regular ~seed n d))

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

(* [Csr.mirror] over the three streaming families: an involution
   pairing each dart with the far end's dart back, of the same colour;
   deleting one dart's reverse makes it raise. *)
let stream_csr (family, n, seed) =
  match family with
  | 0 -> Gen.stream_bounded_degree ~seed n (1 + (seed mod 6))
  | 1 -> Gen.stream_perm_regular ~seed (Stdlib.max n 8) (2 * (1 + (seed mod 3)))
  | _ -> Gen.stream_biregular_tree ~d:(2 + (seed mod 3)) ~delta:(2 + (seed mod 5)) n

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

let mirror_pairs_darts =
  QCheck.Test.make ~count:100 ~name:"Csr.mirror pairs darts; asymmetry raises"
    (QCheck.triple (QCheck.int_range 0 2) (QCheck.int_range 1 60)
       (QCheck.int_range 0 1000))
    (fun input ->
      let g = stream_csr input in
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
      let nd = Array.length mirror in
      !paired
      && (nd = 0
         ||
         let _, _, seed = input in
         let d = seed mod nd in
         let asym = drop_dart g ~w:endpoint.(d) mirror.(d) in
         match Csr.mirror asym with
         | _ -> false
         | exception Invalid_argument _ -> true))

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
        ] );
      ( "streaming csr",
        [
          QCheck_alcotest.to_alcotest stream_bounded_degree_identical;
          QCheck_alcotest.to_alcotest stream_perm_regular_wellformed;
          Alcotest.test_case "biregular tree" `Quick stream_biregular_tree_shape;
          QCheck_alcotest.to_alcotest mirror_pairs_darts;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "known values" `Quick metrics_known_values;
          QCheck_alcotest.to_alcotest metrics_girth_vs_bruteforce;
        ] );
    ]
