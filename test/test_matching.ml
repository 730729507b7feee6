(* Distributed maximal edge packing — the O(Δ) upper bound side. *)

module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Packing = Ld_matching.Packing
module Mm_ec = Ld_matching.Mm_ec
module Gen = Ld_graph.Generators
module G = Ld_graph.Graph
module Colouring = Ld_models.Edge_colouring
module Lift = Ld_cover.Lift

let loopy_of_tree ~seed n =
  let tree = Gen.random_tree ~seed n in
  let base = Colouring.ec_of_simple tree in
  let next = Ec.max_colour base in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops:(List.init n (fun v -> (v, next + 1 + (v mod 2))))

let greedy_maximal_on_simple =
  QCheck.Test.make ~count:80 ~name:"greedy-by-colour: maximal FM on simple graphs"
    (QCheck.triple (QCheck.int_range 2 24) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      Fm.is_maximal_fm (Packing.greedy_by_colour ec))

let greedy_maximal_on_loopy =
  QCheck.Test.make ~count:60 ~name:"greedy-by-colour: maximal + saturating on loopy graphs"
    (QCheck.pair (QCheck.int_range 1 15) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_of_tree ~seed n in
      let y = Packing.greedy_by_colour g in
      Fm.is_maximal_fm y && Fm.is_fully_saturated y)

let proposal_maximal =
  QCheck.Test.make ~count:60 ~name:"proposal: maximal FM, at most n+2 rounds"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 5)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      let y, rounds = Packing.proposal ec in
      Fm.is_maximal_fm y && rounds <= n + 2)

let proposal_maximal_on_loopy =
  QCheck.Test.make ~count:40 ~name:"proposal: maximal + saturating on loopy graphs"
    (QCheck.pair (QCheck.int_range 1 12) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_of_tree ~seed n in
      let y, _ = Packing.proposal g in
      Fm.is_maximal_fm y && Fm.is_fully_saturated y)

let algorithms_lift_invariant =
  QCheck.Test.make ~count:30 ~name:"both algorithms satisfy condition (2) on 2-lifts"
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = loopy_of_tree ~seed n in
      let cov = Lift.unfold_loop g ~loop_id:0 in
      let check (algo : Packing.algorithm) =
        Fm.equal (algo.run cov.total) (Fm.pull_back cov (algo.run g))
      in
      check Packing.greedy_algorithm && check Packing.proposal_algorithm)

let greedy_round_count () =
  (* Exactly k = number of colours communication rounds; on a greedily
     coloured star that is Δ. *)
  let star = Colouring.ec_of_simple (Gen.star 7) in
  Alcotest.(check int) "star colours" 7 (Packing.greedy_rounds star);
  let p = Colouring.ec_of_simple (Gen.path 9) in
  Alcotest.(check int) "path colours" 2 (Packing.greedy_rounds p)

let truncation_is_partial () =
  (* Two independent edges of colours 1 and 2: after one phase the
     colour-2 edge has both endpoints unsaturated, so maximality fails;
     after two phases it holds. *)
  let g = Ec.create ~n:4 ~edges:[ (0, 1, 1); (2, 3, 2) ] ~loops:[] in
  let y1 = Packing.greedy_by_colour ~truncate:1 g in
  Alcotest.(check bool) "feasible" true (Fm.is_fm y1);
  Alcotest.(check bool) "not maximal after 1 phase" false (Fm.is_maximal_fm y1);
  Alcotest.(check bool) "maximal after 2 phases" true
    (Fm.is_maximal_fm (Packing.greedy_by_colour ~truncate:2 g));
  let p = Colouring.ec_of_simple (Gen.path 9) in
  let y0 = Packing.greedy_by_colour ~truncate:0 p in
  Alcotest.(check bool) "zero rounds = zero output" true
    (Q.is_zero (Fm.total y0))

let truncation_prefix_consistent =
  QCheck.Test.make ~count:40
    ~name:"truncating more rounds only extends the processed colours"
    (QCheck.pair (QCheck.int_range 2 14) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n 4) in
      let full = Packing.greedy_by_colour ec in
      let r = 1 + (seed mod 3) in
      let part = Packing.greedy_by_colour ~truncate:r ec in
      (* Every colour <= r edge agrees with the full run. *)
      List.for_all2
        (fun (e : Ec.edge) (w_part, w_full) ->
          if e.colour <= r then Q.equal w_part w_full else true)
        (Ec.edges ec)
        (List.mapi
           (fun i _ -> (Fm.edge_weight part i, Fm.edge_weight full i))
           (Ec.edges ec)))

(* ---- One machine for greedy-by-colour and the greedy matching ---- *)

(* A random loopy EC multigraph: a properly coloured random graph plus
   up to [n] extra parallel edges and loops, each on a colour free at
   its endpoints (colours up to the base's k + 3). *)
let random_loopy_multigraph ~seed n d =
  let base = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
  let k = Ec.max_colour base + 3 in
  let rng = Random.State.make [| seed |] in
  let used = Array.make n [] in
  let edges =
    ref (List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
  in
  List.iter
    (fun (u, v, c) ->
      used.(u) <- c :: used.(u);
      used.(v) <- c :: used.(v))
    !edges;
  let loops = ref [] in
  for _ = 1 to n do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let free =
      List.filter
        (fun c -> not (List.mem c used.(u) || List.mem c used.(v)))
        (List.init k succ)
    in
    if free <> [] then begin
      let c = List.nth free (Random.State.int rng (List.length free)) in
      used.(u) <- c :: used.(u);
      used.(v) <- c :: used.(v);
      if u = v then loops := (u, c) :: !loops else edges := (u, v, c) :: !edges
    end
  done;
  Ec.create ~n ~edges:(List.rev !edges) ~loops:(List.rev !loops)

(* The specification greedy-by-colour implements, with exact slacks: in
   phase c = 1 .. min truncate k every colour-c edge takes the smaller
   residual slack of its endpoints and a colour-c loop takes its node's
   slack (the node hears its own broadcast). A node has at most one
   colour-c dart, so the order within a phase does not matter. *)
let greedy_spec ?truncate g =
  let k = Ec.max_colour g in
  let rounds = match truncate with None -> k | Some r -> min r k in
  let slack = Array.make (Ec.n g) Q.one in
  let edges = Array.of_list (Ec.edges g) and loops = Array.of_list (Ec.loops g) in
  let edge_w = Array.make (Array.length edges) Q.zero in
  let loop_w = Array.make (Array.length loops) Q.zero in
  for c = 1 to rounds do
    Array.iteri
      (fun id (e : Ec.edge) ->
        if e.colour = c then begin
          let w = Q.min slack.(e.u) slack.(e.v) in
          edge_w.(id) <- w;
          slack.(e.u) <- Q.sub slack.(e.u) w;
          slack.(e.v) <- Q.sub slack.(e.v) w
        end)
      edges;
    Array.iteri
      (fun id (l : Ec.loop) ->
        if l.colour = c then begin
          loop_w.(id) <- slack.(l.node);
          slack.(l.node) <- Q.zero
        end)
      loops
  done;
  Fm.create g ~edge_w ~loop_w

let greedy_matches_spec =
  QCheck.Test.make ~count:80
    ~name:"greedy and Mm_ec = Q-slack spec at every truncation"
    (QCheck.triple (QCheck.int_range 1 20) (QCheck.int_range 1 5)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = random_loopy_multigraph ~seed n d in
      let agree truncate =
        let spec = greedy_spec ?truncate g in
        Fm.equal (Packing.greedy_by_colour ?truncate g) spec
        && Fm.equal (Mm_ec.to_fm g (Mm_ec.greedy ?truncate g)) spec
      in
      agree None
      && List.for_all
           (fun r -> agree (Some r))
           (List.init (Ec.max_colour g + 2) Fun.id))

(* The integral machine allocates a state record and one inbox [Some]
   per node-round: 6.8 minor words per node-round measured on this graph
   (the Q-slack machine it replaced: 30.4). The bound is twice the
   measured figure. *)
let greedy_allocation_bound () =
  (* Below [Engine.default_par_threshold] nodes, so the run stays on
     one domain. *)
  let g = loopy_of_tree ~seed:1 2000 in
  assert (Ec.n g < Ld_runtime.Engine.default_par_threshold);
  ignore (Packing.greedy_by_colour g);
  let before = Gc.minor_words () in
  ignore (Packing.greedy_by_colour g);
  let words = Gc.minor_words () -. before in
  let per_node_round = words /. float_of_int (Ec.n g * Packing.greedy_rounds g) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per node-round <= 13.6" per_node_round)
    true (per_node_round <= 13.6)

(* ---- Ec.splice: the unfold and mix constructions ---- *)

(* The construction [Ec.splice] replaced, kept as its oracle:
   concatenate the columns without the two loops, append the crossing
   edge, and let [Ec.of_columns] scatter and sort the darts. *)
let splice_by_columns a ~loop:e b ~loop:f =
  let ca = Ec.columns a and cb = Ec.columns b in
  let na = Ec.n a in
  let shift x = Array.map (fun v -> v + na) x in
  let without k x =
    Array.init (Array.length x - 1) (fun i -> if i < k then x.(i) else x.(i + 1))
  in
  let le = Ec.loop a e and lf = Ec.loop b f in
  Ec.of_columns ~n:(na + Ec.n b)
    {
      edge_u = Array.concat [ ca.edge_u; shift cb.edge_u; [| le.node |] ];
      edge_v = Array.concat [ ca.edge_v; shift cb.edge_v; [| na + lf.node |] ];
      edge_colour = Array.concat [ ca.edge_colour; cb.edge_colour; [| le.colour |] ];
      loop_node = Array.append (without e ca.loop_node) (shift (without f cb.loop_node));
      loop_colour = Array.append (without e ca.loop_colour) (without f cb.loop_colour);
    }

(* Same five columns, same four edge-table arrays, same loop run, and
   [Ec.equal]. *)
let same_graph x y =
  let cx = Ec.columns x and cy = Ec.columns y in
  let tx = Ec.edge_darts x and ty = Ec.edge_darts y in
  let ( =: ) a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b in
  Ec.n x = Ec.n y
  && cx.edge_u =: cy.edge_u && cx.edge_v =: cy.edge_v
  && cx.edge_colour =: cy.edge_colour
  && cx.loop_node =: cy.loop_node && cx.loop_colour =: cy.loop_colour
  && tx.row =: ty.row && tx.key =: ty.key && tx.other =: ty.other
  && tx.code =: ty.code
  && Ec.loop_row x =: Ec.loop_row y
  && Ec.equal x y

(* [g] with one more loop of colour [c], at the first node from [start]
   where [c] is free (on a new isolated node if there is none), and the
   new loop's id: loop ids follow (node, colour) order. *)
let add_loop g ~start c =
  let n = Ec.n g in
  let free v = Option.is_none (Ec.dart_by_colour g v c) in
  let node =
    List.find_opt free (List.init n (fun i -> (start + i) mod n))
    |> Option.value ~default:n
  in
  let g' =
    Ec.create ~n:(Stdlib.max n (node + 1))
      ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges g))
      ~loops:(List.map (fun (l : Ec.loop) -> (l.node, l.colour)) (Ec.loops g) @ [ (node, c) ])
  in
  match Ec.dart_by_colour g' node c with
  | Some (Ec.Into_loop { loop_id; _ }) -> (g', loop_id)
  | _ -> assert false

let splice_matches_columns =
  QCheck.Test.make ~count:150
    ~name:"Ec.splice = concatenated columns (unfold and mix shapes)"
    (QCheck.quad (QCheck.int_range 1 16) (QCheck.int_range 1 4)
       (QCheck.int_range 1 16) (QCheck.int_range 0 999))
    (fun (n, d, n', seed) ->
      let a = random_loopy_multigraph ~seed n d in
      let a = if Ec.num_loops a = 0 then fst (add_loop a ~start:seed 1) else a in
      let e = seed mod Ec.num_loops a in
      let c = (Ec.loop a e).colour in
      (* The mixture's H side: a loop of colour [c], found or added. *)
      let b = random_loopy_multigraph ~seed:(seed + 1) n' d in
      let b, f =
        match List.find_index (fun (l : Ec.loop) -> l.colour = c) (Ec.loops b) with
        | Some f -> (b, f)
        | None -> add_loop b ~start:seed c
      in
      (* A loop whose colour no loop of [a] has. *)
      let odd, odd_loop = add_loop a ~start:seed (Ec.max_colour a + 1) in
      same_graph (Ec.splice a ~loop:e a ~loop:e) (splice_by_columns a ~loop:e a ~loop:e)
      && same_graph (Ec.splice a ~loop:e b ~loop:f) (splice_by_columns a ~loop:e b ~loop:f)
      && same_graph (Ec.splice b ~loop:f a ~loop:e) (splice_by_columns b ~loop:f a ~loop:e)
      &&
      match Ec.splice a ~loop:e odd ~loop:odd_loop with
      | _ -> false
      | exception Invalid_argument _ -> true)

let proposal_rounds_track_delta () =
  (* On spiders (the hard family), the proposal dynamics finish within a
     small multiple of Δ — recorded as the UPPER experiment's shape. *)
  List.iter
    (fun delta ->
      let g = Colouring.ec_of_simple (Gen.spider ~delta ~tail:3) in
      let y, rounds = Packing.proposal g in
      Alcotest.(check bool)
        (Printf.sprintf "spider delta=%d maximal" delta)
        true (Fm.is_maximal_fm y);
      Alcotest.(check bool)
        (Printf.sprintf "rounds %d <= 3*delta" rounds)
        true
        (rounds <= 3 * delta))
    [ 2; 4; 6; 8 ]

(* ---- O(log Δ) approximate packing (the §1.2 contrast class) ---- *)

let approx_quality =
  QCheck.Test.make ~count:60
    ~name:"doubling scheme: feasible, half-covering, >= nu_f/4, O(log delta) rounds"
    (QCheck.triple (QCheck.int_range 2 20) (QCheck.int_range 1 6)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let g = Gen.random_bounded_degree ~seed n d in
      QCheck.assume (G.m g > 0);
      let ec = Colouring.ec_of_simple g in
      let delta = max 1 (G.max_degree g) in
      let y, rounds = Ld_matching.Approx_packing.run ~delta ec in
      let half_covered =
        List.for_all
          (fun (e : Ec.edge) ->
            Q.compare (Fm.node_weight y e.u) Q.half >= 0
            || Q.compare (Fm.node_weight y e.v) Q.half >= 0)
          (Ec.edges ec)
      in
      let rec log2_ceil k = if 1 lsl k >= delta then k else log2_ceil (k + 1) in
      Fm.is_fm y && half_covered
      && Q.compare (Ld_fm.Maximum.ratio y) Ld_matching.Approx_packing.approximation_bound >= 0
      && rounds = log2_ceil 0 + 1)

let approx_rounds_logarithmic () =
  (* The §1.2 contrast: approximation in log Δ rounds, maximality in Δ. *)
  List.iter
    (fun delta ->
      let ec = Colouring.ec_of_simple (Gen.spider ~delta ~tail:2) in
      let _, r_approx = Ld_matching.Approx_packing.run ~delta ec in
      let r_maximal = Packing.greedy_rounds ec in
      Alcotest.(check bool)
        (Printf.sprintf "delta=%d: %d (approx) << %d (maximal)" delta r_approx
           r_maximal)
        true
        (r_approx <= 2 + (delta |> float_of_int |> log |> ( *. ) 1.5 |> ceil |> int_of_float)
        && r_maximal = delta))
    [ 4; 8; 16; 32; 64 ]

(* ---- PO-model packing ---- *)

let po_proposal_maximal =
  QCheck.Test.make ~count:40 ~name:"PO proposal: maximal FM on doubled EC inputs"
    (QCheck.triple (QCheck.int_range 2 16) (QCheck.int_range 1 4)
       (QCheck.int_range 0 999))
    (fun (n, d, seed) ->
      let ec = Colouring.ec_of_simple (Gen.random_bounded_degree ~seed n d) in
      let po = Ld_models.Po.of_ec ec in
      let y, rounds = Ld_matching.Po_packing.proposal po in
      Ld_fm.Po_fm.is_maximal_fm y && rounds <= n + 2)

let po_proposal_on_ports () =
  (* A hand-built port-numbered graph (Fig. 2 style). *)
  let po =
    Ld_models.Po.of_ports ~n:4
      ~connections:[ (0, 1, 1, 1); (1, 2, 2, 1); (2, 2, 3, 1); (3, 2, 0, 2) ]
  in
  let y, _ = Ld_matching.Po_packing.proposal po in
  Alcotest.(check bool) "maximal" true (Ld_fm.Po_fm.is_maximal_fm y)

let po_proposal_with_loops () =
  let po = Ld_models.Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ] in
  let y, _ = Ld_matching.Po_packing.proposal po in
  Alcotest.(check bool) "maximal" true (Ld_fm.Po_fm.is_maximal_fm y);
  (* every node saturated: loops force it (Lemma 2 in PO) *)
  Alcotest.(check bool) "saturated" true
    (Ld_fm.Po_fm.is_saturated y 0 && Ld_fm.Po_fm.is_saturated y 1)

let po_truncated_partial () =
  let po =
    Ld_models.Po.of_ec (Colouring.ec_of_simple (Gen.spider ~delta:5 ~tail:3))
  in
  let y0, _ = Ld_matching.Po_packing.proposal ~truncate:0 po in
  Alcotest.(check bool) "0 rounds: nothing" true
    (Ld_fm.Po_fm.is_fm y0 && not (Ld_fm.Po_fm.is_maximal_fm y0))

let () =
  Alcotest.run "matching"
    [
      ( "greedy-by-colour",
        [
          QCheck_alcotest.to_alcotest greedy_maximal_on_simple;
          QCheck_alcotest.to_alcotest greedy_maximal_on_loopy;
          Alcotest.test_case "round count" `Quick greedy_round_count;
          Alcotest.test_case "truncation partial" `Quick truncation_is_partial;
          QCheck_alcotest.to_alcotest truncation_prefix_consistent;
          QCheck_alcotest.to_alcotest greedy_matches_spec;
          Alcotest.test_case "minor words per node-round" `Quick greedy_allocation_bound;
        ] );
      ("splice", [ QCheck_alcotest.to_alcotest splice_matches_columns ]);
      ( "proposal",
        [
          QCheck_alcotest.to_alcotest proposal_maximal;
          QCheck_alcotest.to_alcotest proposal_maximal_on_loopy;
          Alcotest.test_case "rounds vs delta" `Quick proposal_rounds_track_delta;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest algorithms_lift_invariant ]);
      ( "approx-packing",
        [
          QCheck_alcotest.to_alcotest approx_quality;
          Alcotest.test_case "log-delta contrast" `Quick approx_rounds_logarithmic;
        ] );
      ( "po-packing",
        [
          QCheck_alcotest.to_alcotest po_proposal_maximal;
          Alcotest.test_case "port-numbered input" `Quick po_proposal_on_ports;
          Alcotest.test_case "with loops" `Quick po_proposal_with_loops;
          Alcotest.test_case "truncated" `Quick po_truncated_partial;
        ] );
    ]
