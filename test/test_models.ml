(* The four models: EC, PO, OI, ID (paper §3.2–3.3, Figs. 1–2). *)

module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Colouring = Ld_models.Edge_colouring
module Labelled = Ld_models.Labelled
module G = Ld_graph.Graph
module Gen = Ld_graph.Generators

let ec_properness () =
  (* Two darts of colour 1 at node 0: rejected. *)
  Alcotest.check_raises "edge/edge clash"
    (Invalid_argument "Ec.create: node 0 has two darts of colour 1 (colouring not proper)")
    (fun () -> ignore (Ec.create ~n:3 ~edges:[ (0, 1, 1); (0, 2, 1) ] ~loops:[]));
  Alcotest.check_raises "edge/loop clash"
    (Invalid_argument "Ec.create: node 0 has two darts of colour 2 (colouring not proper)")
    (fun () -> ignore (Ec.create ~n:2 ~edges:[ (0, 1, 2) ] ~loops:[ (0, 2) ]))

let ec_loop_degree () =
  (* Fig. 3 convention: an EC loop counts once. *)
  let g = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2); (0, 3); (1, 2) ] in
  Alcotest.(check int) "deg 0" 3 (Ec.degree g 0);
  Alcotest.(check int) "deg 1" 2 (Ec.degree g 1);
  Alcotest.(check int) "max colour" 3 (Ec.max_colour g);
  Alcotest.(check int) "min loops" 1 (Ec.min_loops g);
  Alcotest.(check (list int)) "loops at 0" [ 0; 1 ]
    (List.sort Int.compare (Ec.loops_at g 0))

let ec_remove_loop () =
  let g = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1); (0, 2); (0, 3) ] in
  let h = Ec.remove_loop g 1 in
  Alcotest.(check int) "loops left" 2 (Ec.num_loops h);
  Alcotest.(check (list int)) "colours left" [ 1; 3 ]
    (List.sort Int.compare (List.map (fun (l : Ec.loop) -> l.colour) (Ec.loops h)))

let ec_union_and_simple () =
  let a = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2) ] in
  let b = Ec.create ~n:1 ~edges:[] ~loops:[ (0, 1) ] in
  let u = Ec.disjoint_union a b in
  Alcotest.(check int) "n" 3 (Ec.n u);
  Alcotest.(check int) "loops" 2 (Ec.num_loops u);
  let s = Ec.of_simple (Gen.path 3) ~colour:(fun (u, _) -> u + 1) in
  Alcotest.(check int) "of_simple edges" 2 (Ec.num_edges s);
  Alcotest.(check bool) "roundtrip" true
    (G.is_isomorphic_small (Ec.to_simple s) (Gen.path 3));
  Alcotest.check_raises "to_simple with loops"
    (Invalid_argument "Ec.to_simple: graph has loops") (fun () ->
      ignore (Ec.to_simple a))

let po_loop_degree () =
  (* Fig. 3 convention: a PO loop counts twice (out + in). *)
  let g = Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ] in
  Alcotest.(check int) "deg 0" 3 (Po.degree g 0);
  Alcotest.(check int) "deg 1" 3 (Po.degree g 1)

let po_properness () =
  (* Two outgoing colour-1 arcs at node 0: rejected; an outgoing and an
     incoming arc of the same colour are fine. *)
  Alcotest.check_raises "out clash"
    (Invalid_argument "Po.create: node 0 has two outgoing darts of colour 1")
    (fun () -> ignore (Po.create ~n:3 ~arcs:[ (0, 1, 1); (0, 2, 1) ] ~loops:[]));
  Alcotest.check_raises "in clash"
    (Invalid_argument "Po.create: node 0 has two incoming darts of colour 1")
    (fun () -> ignore (Po.create ~n:3 ~arcs:[ (1, 0, 1); (2, 0, 1) ] ~loops:[]));
  let ok = Po.create ~n:3 ~arcs:[ (0, 1, 1); (2, 0, 1) ] ~loops:[] in
  Alcotest.(check int) "mixed colours fine" 2 (Po.degree ok 0)

(* Colours outside [1, 2^30) are rejected by both models: beyond it a
   PO in-dart's key would alias an out-dart's, and refinement's packed
   descriptors would overflow. *)
let colour_bound () =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let tree top =
    Ec.create ~n:6
      ~edges:[ (0, 1, 1); (1, 2, 2); (2, 3, 1); (3, 4, 2); (4, 5, top) ]
      ~loops:[]
  in
  rejects "Ec colour max_int" (fun () -> tree max_int);
  rejects "Ec colour 2^30" (fun () -> tree (1 lsl 30));
  rejects "Ec.add_edge colour 2^30" (fun () -> Ec.add_edge (tree 3) (0, 5, 1 lsl 30));
  Alcotest.(check int) "Ec colour 2^30 - 1" ((1 lsl 30) - 1)
    (Ec.max_colour (tree ((1 lsl 30) - 1)));
  rejects "Po arc colour 2^61" (fun () ->
      Po.create ~n:2 ~arcs:[ (0, 1, 0x2000_0000_0000_0000 (* 2^61 *)) ] ~loops:[]);
  rejects "Po loop colour 2^30" (fun () ->
      Po.create ~n:1 ~arcs:[] ~loops:[ (0, 1 lsl 30) ])

(* A random PO multigraph. Colours are small, or (with [high]) packed
   just under the 2^30 bound; an in-dart and an out-dart often share
   a colour. *)
let random_po (seed, high) =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 8 in
  let base = if high then (1 lsl 30) - 7 else 0 in
  let used_out = Hashtbl.create 16 and used_in = Hashtbl.create 16 in
  let free v c = not (Hashtbl.mem used_out (v, c) || Hashtbl.mem used_in (v, c)) in
  let arcs = ref [] and loops = ref [] in
  for _ = 1 to Random.State.int st 20 do
    let u = Random.State.int st n and v = Random.State.int st n in
    let c = base + 1 + Random.State.int st 6 in
    if u = v then begin
      if free u c then begin
        Hashtbl.replace used_out (u, c) ();
        Hashtbl.replace used_in (u, c) ();
        loops := (u, c) :: !loops
      end
    end
    else if not (Hashtbl.mem used_out (u, c) || Hashtbl.mem used_in (v, c)) then begin
      Hashtbl.replace used_out (u, c) ();
      Hashtbl.replace used_in (v, c) ();
      arcs := (u, v, c) :: !arcs
    end
  done;
  Po.create ~n ~arcs:!arcs ~loops:!loops

let dart_ints = function
  | Po.Out { neighbour; arc_id; colour } -> [ 0; neighbour; arc_id; colour ]
  | Po.In { neighbour; arc_id; colour } -> [ 1; neighbour; arc_id; colour ]
  | Po.Loop_out { loop_id; colour } -> [ 2; loop_id; colour ]
  | Po.Loop_in { loop_id; colour } -> [ 3; loop_id; colour ]

(* The PO1 port order spelled out from the arc and loop lists: out-darts
   by colour, then in-darts by colour. *)
let po_darts_spec =
  QCheck.Test.make ~count:200 ~name:"Po.darts = out-darts by colour, then in-darts"
    QCheck.(pair (int_range 0 100_000) bool)
    (fun input ->
      let g = random_po input in
      let arcs = List.mapi (fun id a -> (id, a)) (Po.arcs g)
      and loops = List.mapi (fun id l -> (id, l)) (Po.loops g) in
      let expected v =
        let side out =
          List.filter_map
            (fun (arc_id, (a : Po.arc)) ->
              if out && a.tail = v then
                Some (Po.Out { neighbour = a.head; arc_id; colour = a.colour })
              else if (not out) && a.head = v then
                Some (Po.In { neighbour = a.tail; arc_id; colour = a.colour })
              else None)
            arcs
          @ List.filter_map
              (fun (loop_id, (l : Po.loop)) ->
                if l.node <> v then None
                else if out then Some (Po.Loop_out { loop_id; colour = l.colour })
                else Some (Po.Loop_in { loop_id; colour = l.colour }))
              loops
          |> List.stable_sort (fun a b -> Int.compare (Po.dart_colour a) (Po.dart_colour b))
        in
        List.map dart_ints (side true @ side false)
      in
      List.for_all
        (fun v ->
          List.equal (List.equal Int.equal) (List.map dart_ints (Po.darts g v)) (expected v)
          && Po.degree g v = List.length (expected v))
        (List.init (Po.n g) Fun.id))

let po_of_ports_roundtrip () =
  (* Fig. 2(a): the port-numbered triangle-ish example — encode, then
     check that port lists follow out-by-colour then in-by-colour. *)
  let g = Po.of_ports ~n:3 ~connections:[ (0, 1, 1, 2); (1, 1, 2, 1); (2, 2, 0, 2) ] in
  Alcotest.(check int) "arcs" 3 (Po.num_arcs g);
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "deg %d" v) 2 (Po.degree g v))
    [ 0; 1; 2 ];
  let ports = Po.ports g 0 in
  Alcotest.(check bool) "port 1 of node 0 is outgoing" true
    (Po.dart_is_out ports.(0));
  Alcotest.(check bool) "port 2 of node 0 is incoming" false
    (Po.dart_is_out ports.(1));
  Alcotest.check_raises "port reuse rejected"
    (Invalid_argument "Po.of_ports: port 1 of node 0 used twice") (fun () ->
      ignore (Po.of_ports ~n:2 ~connections:[ (0, 1, 1, 1); (0, 1, 1, 2) ]))

let po_of_ec_doubles () =
  (* §5.1: every EC edge becomes two arcs, loops become directed loops;
     degrees double. *)
  let ec = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2) ] in
  let po = Po.of_ec ec in
  Alcotest.(check int) "arcs" 2 (Po.num_arcs po);
  Alcotest.(check int) "loops" 1 (Po.num_loops po);
  Alcotest.(check int) "deg doubles" (2 * Ec.degree ec 0) (Po.degree po 0)

let colouring_proper_on_families =
  QCheck.Test.make ~count:60 ~name:"greedy edge colouring proper, <= 2Δ-1 colours"
    (QCheck.pair (QCheck.int_range 2 25) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = Ld_graph.Generators.random_bounded_degree ~seed n 5 in
      let colour = Colouring.greedy g in
      Colouring.is_proper g colour
      && (G.m g = 0
         || Colouring.num_colours g colour <= (2 * G.max_degree g) - 1))

let ec_of_simple_families () =
  List.iter
    (fun g ->
      let ec = Colouring.ec_of_simple g in
      Alcotest.(check int) "edges preserved" (G.m g) (Ec.num_edges ec);
      Alcotest.(check int) "degree preserved" (G.max_degree g) (Ec.max_degree ec))
    [ Gen.path 7; Gen.cycle 8; Gen.star 6; Gen.grid 3 4; Gen.complete 5 ]

(* A random proper-coloured loopy multigraph: nodes 0..2 act as hubs so
   that some segments exceed the insertion-sort cutoff of 16 darts. *)
let random_loopy_ec seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 30 in
  let max_colour = 40 in
  let used = Array.init n (fun _ -> Array.make (max_colour + 1) false) in
  let edges = ref [] and loops = ref [] in
  for _ = 1 to Random.State.int st 120 do
    let pick () =
      if Random.State.bool st then Random.State.int st (min n 3)
      else Random.State.int st n
    in
    let u = pick () and v = pick () and c = 1 + Random.State.int st max_colour in
    if u = v then begin
      if not used.(u).(c) then begin
        used.(u).(c) <- true;
        loops := (u, c) :: !loops
      end
    end
    else if not (used.(u).(c) || used.(v).(c)) then begin
      used.(u).(c) <- true;
      used.(v).(c) <- true;
      edges := (u, v, c) :: !edges
    end
  done;
  Ec.create ~n ~edges:(List.rev !edges) ~loops:(List.rev !loops)

(* The CSR as the list-based construction built it: per-node dart lists
   in (colour, far end, code) form, sorted by colour, then flattened. *)
let reference_csr g =
  let n = Ec.n g in
  let darts = Array.make n [] in
  List.iteri
    (fun id (e : Ec.edge) ->
      darts.(e.u) <- (e.colour, e.v, id) :: darts.(e.u);
      darts.(e.v) <- (e.colour, e.u, id) :: darts.(e.v))
    (Ec.edges g);
  List.iteri
    (fun id (l : Ec.loop) -> darts.(l.node) <- (l.colour, l.node, -id - 1) :: darts.(l.node))
    (Ec.loops g);
  let segments =
    Array.map (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)) darts
  in
  let row = Array.make (n + 1) 0 in
  Array.iteri (fun v ds -> row.(v + 1) <- row.(v) + List.length ds) segments;
  let flat = List.concat (Array.to_list segments) in
  ( row,
    Array.of_list (List.map (fun (c, _, _) -> c) flat),
    Array.of_list (List.map (fun (_, o, _) -> o) flat),
    Array.of_list (List.map (fun (_, _, k) -> k) flat) )

let ec_csr_matches_dart_lists =
  QCheck.Test.make ~count:200 ~name:"array-native CSR = sorted dart lists"
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let g = random_loopy_ec seed in
      let row, colour, other, code = reference_csr g in
      let c = Ec.csr g in
      let same a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b in
      same c.row row && same c.key colour && same c.other other
      && same c.code code
      && List.for_all
           (fun v ->
             List.equal
               (fun a b -> Ec.dart_colour a = Ec.dart_colour b)
               (Ec.darts g v)
               (List.init (Ec.degree g v) (fun i -> Ec.dart_at g (c.row.(v) + i))))
           (List.init (Ec.n g) Fun.id)
      (* the columns read back as the records the graph was built from *)
      && Ec.equal g (Ec.of_columns ~n:(Ec.n g) (Ec.columns g)))

let ec_of_columns_checks () =
  let cols =
    {
      Ec.edge_u = [| 0 |];
      edge_v = [| 1 |];
      edge_colour = [||];
      loop_node = [||];
      loop_colour = [||];
    }
  in
  Alcotest.check_raises "column lengths"
    (Invalid_argument "Ec.of_columns: column lengths differ") (fun () ->
      ignore (Ec.of_columns ~n:2 cols));
  Alcotest.check_raises "node range"
    (Invalid_argument "Ec.create: node out of range") (fun () ->
      ignore (Ec.of_columns ~n:1 { cols with edge_colour = [| 1 |] }))

(* P3 against its definition on the simple graph: a connected simple
   graph with n - 1 edges (parallel edges are not simple). *)
let ec_tree_check =
  QCheck.Test.make ~count:200 ~name:"is_tree_plus_loops = simple tree check"
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let g = random_loopy_ec seed in
      let reference =
        match
          G.create (Ec.n g)
            (List.map (fun (e : Ec.edge) -> (min e.u e.v, max e.u e.v)) (Ec.edges g))
        with
        | exception Invalid_argument _ -> false
        | sg -> G.m sg = G.n sg - 1 && G.is_connected sg
      in
      let tree =
        (* a spanning path on the same nodes, to hit the positive case *)
        Ec.create ~n:(Ec.n g)
          ~edges:(List.init (Ec.n g - 1) (fun v -> (v, v + 1, 1 + (v mod 2))))
          ~loops:[ (0, 3) ]
      in
      Bool.equal reference (Ec.is_tree_plus_loops g) && Ec.is_tree_plus_loops tree)

let labelled_id_oi () =
  let g = Gen.path 3 in
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Id.create: duplicate id")
    (fun () -> ignore (Labelled.Id.create g [| 1; 1; 2 |]));
  let id = Labelled.Id.create g [| 30; 10; 20 |] in
  let oi = Labelled.Oi.of_id id in
  Alcotest.(check bool) "1 precedes 2" true (Labelled.Oi.precedes oi 1 2);
  Alcotest.(check bool) "2 precedes 0" true (Labelled.Oi.precedes oi 2 0);
  (* An order-respecting reassignment keeps the order. *)
  let id' = Labelled.Oi.assign oi [| 5; 100; 2 |] in
  Alcotest.(check int) "smallest id to rank-0 node" 2 (Labelled.Id.id id' 1);
  Alcotest.(check int) "largest id to rank-2 node" 100 (Labelled.Id.id id' 0)

let dot_export () =
  let has doc needle =
    let n = String.length needle and h = String.length doc in
    let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
    go 0
  in
  let ec = Ec.create ~n:2 ~edges:[ (0, 1, 1) ] ~loops:[ (0, 2) ] in
  let doc = Ld_models.Dot.ec ec in
  Alcotest.(check bool) "graph header" true (has doc "graph G {");
  Alcotest.(check bool) "edge present" true (has doc "v0 -- v1");
  Alcotest.(check bool) "loop stub dashed" true (has doc "style=dashed");
  let po = Po.of_ec ec in
  let doc' = Ld_models.Dot.po po in
  Alcotest.(check bool) "digraph header" true (has doc' "digraph G {");
  Alcotest.(check bool) "both arcs" true (has doc' "v0 -> v1" && has doc' "v1 -> v0");
  Alcotest.(check bool) "directed self-loop" true (has doc' "v0 -> v0");
  let doc'' = Ld_models.Dot.simple (Gen.path 3) in
  Alcotest.(check bool) "simple edges" true (has doc'' "v1 -- v2")

let () =
  Alcotest.run "models"
    [
      ( "ec",
        [
          Alcotest.test_case "properness" `Quick ec_properness;
          Alcotest.test_case "loop degree" `Quick ec_loop_degree;
          Alcotest.test_case "remove loop" `Quick ec_remove_loop;
          Alcotest.test_case "union and simple" `Quick ec_union_and_simple;
          QCheck_alcotest.to_alcotest ec_csr_matches_dart_lists;
          Alcotest.test_case "of_columns checks" `Quick ec_of_columns_checks;
          QCheck_alcotest.to_alcotest ec_tree_check;
        ] );
      ( "po",
        [
          Alcotest.test_case "loop degree" `Quick po_loop_degree;
          Alcotest.test_case "properness" `Quick po_properness;
          Alcotest.test_case "colour bound" `Quick colour_bound;
          QCheck_alcotest.to_alcotest po_darts_spec;
          Alcotest.test_case "of_ports" `Quick po_of_ports_roundtrip;
          Alcotest.test_case "of_ec" `Quick po_of_ec_doubles;
        ] );
      ( "colouring",
        [
          QCheck_alcotest.to_alcotest colouring_proper_on_families;
          Alcotest.test_case "ec_of_simple families" `Quick ec_of_simple_families;
        ] );
      ("labelled", [ Alcotest.test_case "id and oi" `Quick labelled_id_oi ]);
      ("dot", [ Alcotest.test_case "export" `Quick dot_export ]);
    ]
