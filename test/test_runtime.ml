(* LOCAL runtime, one differential suite over every front-end of the
   round engine: the anonymous runners (loop reflection, active-set
   executor vs the dense oracle vs a forced 4-way split), the ID
   simulator, and the packed port machines vs their boxed [Sync] twins
   at 1 domain and at a forced multi-domain split. *)

module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Colouring = Ld_models.Edge_colouring
module Anon_ec = Ld_runtime.Anon_ec
module Anon_po = Ld_runtime.Anon_po
module Packed = Ld_runtime.Packed
module Sync = Ld_runtime.Sync
module View = Ld_cover.View
module Lift = Ld_cover.Lift
module Gen = Ld_graph.Generators
module Labelled = Ld_models.Labelled
module Packed_ii = Ld_matching.Packed_ii
module Packed_pr = Ld_matching.Packed_pr
module Davies_peck = Ld_matching.Davies_peck
module Pr = Ld_matching.Panconesi_rizzi

(* A full-information machine whose state after r rounds is (a hash of)
   the radius-r view: used to validate loop reflection against explicit
   lifts and view trees. *)
type probe = { seen : string }

let probe_machine : (probe, string) Anon_ec.machine =
  {
    init =
      (fun ~degree:_ ~colours ->
        { seen = String.concat "," (List.map string_of_int colours) });
    send = (fun s -> s.seen);
    recv =
      (fun s inbox ->
        {
          seen =
            s.seen ^ "|"
            ^ String.concat ";"
                (List.map
                   (fun (c, m) -> Printf.sprintf "%d<%s>" c m)
                   (Anon_ec.Inbox.to_list inbox));
        });
    halted = (fun _ -> false);
  }

let random_loopy ~seed n =
  let tree = Gen.random_tree ~seed n in
  let base = Ld_models.Edge_colouring.ec_of_simple tree in
  let next = Ec.max_colour base in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops:(List.init n (fun v -> (v, next + 1)))

let reflection_agrees_with_lift =
  QCheck.Test.make ~count:40
    ~name:"EC runner on multigraph = runner on 2-lift, fiberwise"
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy ~seed n in
      let cov = Lift.unfold_loop g ~loop_id:0 in
      let rounds = 3 in
      let base_states = Anon_ec.run probe_machine ~rounds g in
      let lift_states = Anon_ec.run probe_machine ~rounds cov.total in
      Array.for_all Fun.id
        (Array.mapi
           (fun v s -> s.seen = base_states.(cov.map.(v)).seen)
           lift_states))

let state_determined_by_view =
  QCheck.Test.make ~count:40
    ~name:"after r rounds, probe state = function of radius-(r+1) view"
    (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = random_loopy ~seed n in
      let rounds = 2 in
      let states = Anon_ec.run probe_machine ~rounds g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same_view =
            View.equal
              (View.of_ec g u ~radius:(rounds + 1))
              (View.of_ec g v ~radius:(rounds + 1))
          in
          if same_view && states.(u).seen <> states.(v).seen then ok := false
        done
      done;
      !ok)

let run_until_halts () =
  (* Nodes halt after seeing [degree] rounds. *)
  let machine : (int * int, unit) Anon_ec.machine =
    {
      init = (fun ~degree ~colours:_ -> (degree, 0));
      send = (fun _ -> ());
      recv = (fun (d, r) _ -> (d, r + 1));
      halted = (fun (d, r) -> r >= d);
    }
  in
  let g = Ld_models.Edge_colouring.ec_of_simple (Gen.star 4) in
  let _, rounds = Anon_ec.run_until machine ~max_rounds:100 g in
  Alcotest.(check int) "rounds = max degree" 4 rounds

(* ID simulator: flood the minimum identifier; check rounds = eccentricity. *)
type flood = { my_min : int; deg : int; halt_at : int; round : int }

let flood_machine : (flood, int, int) Sync.machine =
  {
    init =
      (fun ~id ~degree ~rng:_ ->
        { my_min = id; deg = degree; halt_at = max_int; round = 0 });
    send = (fun s ~port:_ -> Some s.my_min);
    recv =
      (fun s inbox ->
        let m = List.fold_left (fun acc (_, v) -> min acc v) s.my_min inbox in
        { s with my_min = m; round = s.round + 1 });
    output = (fun s -> if s.round >= s.halt_at then Some s.my_min else None);
  }

(* ------------------------------------------------------------------ *)
(* Differential oracle: active-set executor vs dense reference.        *)

(* A family of halting machines with staggered, state-dependent halting
   times. The state mixes a rolling hash of everything the node reads
   (via both [fold] and [find], so both inbox paths are exercised), so
   any divergence in message plumbing, halting schedule or round count
   between the two executors surfaces as a state mismatch.
   [quota ~-1] never halts; [quota 0] is all-halted-at-round-0. *)
type diff_st = { h : int; r : int; quota : int }

let same_states =
  Array.for_all2 (fun (a : diff_st) b ->
      a.h = b.h && a.r = b.r && a.quota = b.quota)

let diff_quota ~quota_mod ~salt ~degree ~weight =
  if quota_mod < 0 then max_int
  else if quota_mod = 0 then 0
  else (degree + salt + weight) mod quota_mod

let diff_ec_machine ~salt ~quota_mod : (diff_st, int) Anon_ec.machine =
  {
    init =
      (fun ~degree ~colours ->
        let weight = List.fold_left ( + ) 0 colours in
        {
          h = (salt * 131) + (degree * 7) + weight;
          r = 0;
          quota = diff_quota ~quota_mod ~salt ~degree ~weight;
        });
    send = (fun s -> (s.h * 31) + s.r);
    recv =
      (fun s ib ->
        let h =
          Anon_ec.Inbox.fold
            (fun acc ~colour m -> (acc * 1000003) lxor (colour * 7919) lxor m)
            s.h ib
        in
        let h =
          match Anon_ec.Inbox.find ib ~colour:(1 + (s.r mod 5)) with
          | None -> h
          | Some m -> (h * 31) lxor m
        in
        { s with h; r = s.r + 1 });
    halted = (fun s -> s.r >= s.quota);
  }

let diff_po_machine ~salt ~quota_mod : (diff_st, int) Anon_po.machine =
  {
    init =
      (fun ~darts ->
        let degree = List.length darts in
        let weight =
          List.fold_left
            (fun acc (k : Anon_po.dart_key) ->
              acc + (2 * k.colour) + if k.out then 1 else 0)
            0 darts
        in
        {
          h = (salt * 131) + (degree * 7) + weight;
          r = 0;
          quota = diff_quota ~quota_mod ~salt ~degree ~weight;
        });
    send = (fun s -> (s.h * 31) + s.r);
    recv =
      (fun s ib ->
        let h =
          Anon_po.Inbox.fold
            (fun acc ~key m ->
              (acc * 1000003)
              lxor ((key.colour * 7919) + if key.out then 1 else 0)
              lxor m)
            s.h ib
        in
        let h =
          match
            Anon_po.Inbox.find ib
              ~key:{ out = s.r mod 2 = 0; colour = 1 + (s.r mod 5) }
          with
          | None -> h
          | Some m -> (h * 31) lxor m
        in
        { s with h; r = s.r + 1 });
    halted = (fun s -> s.r >= s.quota);
  }

(* quota_mod sweeps never-halts (-1), halt-at-init (0) and staggered
   halting (1..5); max_rounds 12 keeps never-halts runs bounded. *)
let diff_params =
  QCheck.triple
    (QCheck.pair (QCheck.int_range 1 9) (QCheck.int_range 0 999))
    (QCheck.int_range (-1) 5)
    (QCheck.int_range 0 63)

let check_ec (n, seed) quota_mod salt =
  let g = random_loopy ~seed n in
  let m = diff_ec_machine ~salt ~quota_mod in
  let max_rounds = 12 in
  let act, ra = Anon_ec.run_until m ~max_rounds g in
  let ref_, rr = Anon_ec.reference_run m ~max_rounds g in
  let par, rp =
    Anon_ec.run_until ~par_threshold:0 ~domains:4 m ~max_rounds g
  in
  ra = rr && rp = rr && same_states act ref_ && same_states par ref_
  && same_states (Anon_ec.run m ~rounds:5 g)
       (fst (Anon_ec.reference_run m ~max_rounds:5 g))

let ec_active_equals_reference =
  QCheck.Test.make ~count:60
    ~name:"EC active-set executor = dense reference (states and rounds)"
    diff_params
    (fun (gp, quota_mod, salt) -> check_ec gp quota_mod salt)

let check_po (n, seed) quota_mod salt =
  let g = Po.of_ec (random_loopy ~seed n) in
  let m = diff_po_machine ~salt ~quota_mod in
  let max_rounds = 12 in
  let act, ra = Anon_po.run_until m ~max_rounds g in
  let ref_, rr = Anon_po.reference_run m ~max_rounds g in
  let par, rp =
    Anon_po.run_until ~par_threshold:0 ~domains:4 m ~max_rounds g
  in
  ra = rr && rp = rr && same_states act ref_ && same_states par ref_
  && same_states (Anon_po.run m ~rounds:5 g)
       (fst (Anon_po.reference_run m ~max_rounds:5 g))

let po_active_equals_reference =
  QCheck.Test.make ~count:60
    ~name:"PO active-set executor = dense reference (states and rounds)"
    diff_params
    (fun (gp, quota_mod, salt) -> check_po gp quota_mod salt)

let ec_edge_cases () =
  let g = random_loopy ~seed:7 6 in
  (* All halted at round 0: no rounds run, states are the initial ones. *)
  let m0 = diff_ec_machine ~salt:3 ~quota_mod:0 in
  let s, r = Anon_ec.run_until m0 ~max_rounds:10 g in
  Alcotest.(check int) "halt-at-init rounds" 0 r;
  let s_ref, r_ref = Anon_ec.reference_run m0 ~max_rounds:10 g in
  Alcotest.(check int) "halt-at-init rounds (reference)" 0 r_ref;
  Alcotest.(check bool) "halt-at-init states" true (same_states s s_ref);
  (* Never halts: both executors run to the round limit. *)
  let mn = diff_ec_machine ~salt:3 ~quota_mod:(-1) in
  let _, r = Anon_ec.run_until mn ~max_rounds:10 g in
  let _, r_ref = Anon_ec.reference_run mn ~max_rounds:10 g in
  Alcotest.(check int) "never-halts rounds" 10 r;
  Alcotest.(check int) "never-halts rounds (reference)" 10 r_ref;
  (* A negative round limit: every front-end rejects it through the
     engine's one check. *)
  let rejected f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  let p = Po.of_ec g in
  let mp = diff_po_machine ~salt:3 ~quota_mod:(-1) in
  let path = Gen.path 3 in
  let csr = Csr.of_graph path ~colour:(Colouring.greedy path) in
  List.iter
    (fun (what, f) -> Alcotest.(check bool) what true (rejected f))
    [
      ("Anon_ec.run", fun () -> ignore (Anon_ec.run mn ~rounds:(-1) g));
      ("Anon_ec.run_until", fun () ->
        ignore (Anon_ec.run_until mn ~max_rounds:(-1) g));
      ("Anon_po.run", fun () -> ignore (Anon_po.run mp ~rounds:(-1) p));
      ("Anon_po.run_until", fun () ->
        ignore (Anon_po.run_until mp ~max_rounds:(-1) p));
      ("Packed.Port.run_until", fun () ->
        ignore
          (Packed.Port.run_until (Packed_ii.machine ~seed:1) ~max_rounds:(-1)
             csr));
      ("Sync.run", fun () ->
        ignore
          (Sync.run flood_machine ~seed:0 ~max_rounds:(-1)
             (Labelled.Id.trivial path)));
    ]

(* ------------------------------------------------------------------ *)

(* PO probe: also checks that out/in darts are distinguished. *)
type po_probe = { po_seen : string }

let po_probe_machine : (po_probe, string) Anon_po.machine =
  {
    init =
      (fun ~darts ->
        {
          po_seen =
            String.concat ","
              (List.map
                 (fun (k : Anon_po.dart_key) ->
                   Printf.sprintf "%s%d" (if k.out then "+" else "-") k.colour)
                 darts);
        });
    send = (fun s -> s.po_seen);
    recv =
      (fun s inbox ->
        {
          po_seen =
            s.po_seen ^ "|"
            ^ String.concat ";"
                (List.map
                   (fun ((k : Anon_po.dart_key), m) ->
                     Printf.sprintf "%s%d<%s>" (if k.out then "+" else "-")
                       k.colour m)
                   (Anon_po.Inbox.to_list inbox));
        });
    halted = (fun _ -> false);
  }

let po_loop_reflection () =
  (* A single node with one directed loop is covered by any directed
     cycle with all arcs the same colour: states must match. *)
  let base = Po.create ~n:1 ~arcs:[] ~loops:[ (0, 1) ] in
  let cycle =
    Po.create ~n:3 ~arcs:[ (0, 1, 1); (1, 2, 1); (2, 0, 1) ] ~loops:[]
  in
  let sb = Anon_po.run po_probe_machine ~rounds:3 base in
  let sc = Anon_po.run po_probe_machine ~rounds:3 cycle in
  Array.iter
    (fun (s : po_probe) ->
      Alcotest.(check string) "cycle node = loop node" sb.(0).po_seen s.po_seen)
    sc

let po_reflection_agrees_with_lift =
  QCheck.Test.make ~count:40
    ~name:"PO runner on multigraph = runner on EC-doubled lift, fiberwise"
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      (* Build a loopy EC graph; its PO version has directed loops. The
         EC 2-lift's PO version covers it, with the same fiber map. *)
      let g = random_loopy ~seed n in
      let cov = Ld_cover.Lift.unfold_loop g ~loop_id:0 in
      let po_base = Po.of_ec g in
      let po_total = Po.of_ec cov.total in
      let rounds = 3 in
      let base_states = Anon_po.run po_probe_machine ~rounds po_base in
      let lift_states = Anon_po.run po_probe_machine ~rounds po_total in
      Array.for_all Fun.id
        (Array.mapi
           (fun v (s : po_probe) -> s.po_seen = base_states.(cov.map.(v)).po_seen)
           lift_states))

let po_orientation_matters () =
  (* A 2-cycle (0->1, 1->0) of colour 1 versus a single undirected-ish
     pair using distinct arcs: from a node's perspective, out and in
     darts differ, so the directed path (0->1) gives different states at
     its two endpoints. *)
  let p = Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[] in
  let s = Anon_po.run po_probe_machine ~rounds:2 p in
  Alcotest.(check bool) "tail and head differ" true (s.(0).po_seen <> s.(1).po_seen)

let flood_min () =
  let g = Gen.path 6 in
  let id = Labelled.Id.create g [| 12; 4; 9; 3; 40; 7 |] in
  let machine = { flood_machine with output = (fun s -> if s.round >= 5 then Some s.my_min else None) } in
  let res = Sync.run machine ~seed:0 ~max_rounds:50 id in
  Array.iter (fun o -> Alcotest.(check int) "all learn min" 3 o) res.outputs;
  Alcotest.(check int) "rounds" 5 res.rounds

let sync_staggered_halting () =
  (* Nodes halt at different rounds (their own id), so late rounds see
     a shrinking active frontier whose halted senders must keep
     "sending" their frozen message. Each node floods the minimum it has
     seen; node with halt_at=k only aggregates for k rounds. *)
  let g = Gen.path 5 in
  let id = Labelled.Id.create g [| 5; 1; 4; 2; 3 |] in
  let machine =
    {
      flood_machine with
      init =
        (fun ~id ~degree ~rng:_ ->
          { my_min = id; deg = degree; halt_at = id; round = 0 });
    }
  in
  let res = Sync.run machine ~seed:0 ~max_rounds:50 id in
  (* The id-1 node halts after round 1 with the global min; the min then
     travels through nodes that freeze along the way (node 3 freezes at
     round 2 holding 1, and node 4 reads that frozen message in round
     3), so every node outputs 1 — which only works if halted senders
     keep delivering their frozen state's message. *)
  Alcotest.(check int) "rounds = max halt_at" 5 res.rounds;
  Alcotest.(check (list int)) "outputs"
    [ 1; 1; 1; 1; 1 ]
    (Array.to_list res.outputs)

let sync_reports_nonhalting () =
  let g = Gen.path 2 in
  let id = Labelled.Id.trivial g in
  let never = { flood_machine with output = (fun _ -> None) } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sync.run never ~seed:0 ~max_rounds:3 id);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Packed port machines vs their boxed twins.                          *)

let graph_gen = QCheck.triple (QCheck.int_range 0 25) (QCheck.int_range 0 6) (QCheck.int_range 0 1000)

let make_graph (n, d, seed) = Gen.random_bounded_degree ~seed n d
let csr_of g = Csr.of_graph g ~colour:(Colouring.greedy g)

(* Both split modes the executors distinguish: the sequential path and
   a forced 4-way parallel split. *)
let domain_legs = [ (1, None); (4, Some 0) ]

(* ---- Israeli–Itai (Port, shared coin stream) ---- *)

let ii_matches_twin =
  QCheck.Test.make ~count:50 ~name:"packed II = boxed twin (all domains)"
    graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let oracle = Packed_ii.reference_run ~seed:7 ~max_rounds:10_000 g in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ =
            Packed_ii.run ?par_threshold ~domains ~seed:7 ~max_rounds:10_000
              csr
          in
          Array.for_all2 Int.equal r.Packed_ii.mate oracle.Packed_ii.mate
          && r.Packed_ii.rounds = oracle.Packed_ii.rounds
          && Packed_ii.is_maximal csr r)
        domain_legs)

(* ---- Panconesi–Rizzi (Port, deterministic) ---- *)

let pr_matches_boxed =
  QCheck.Test.make ~count:50
    ~name:"packed PR = Panconesi_rizzi.run (all domains)" graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let oracle = Pr.run (Labelled.Id.trivial g) in
      let expect =
        Array.map (function Some w -> w | None -> -1) oracle.Pr.mate
      in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ = Packed_pr.run ?par_threshold ~domains csr in
          Array.for_all2 Int.equal r.Packed_pr.mate expect
          && r.Packed_pr.rounds = oracle.Pr.rounds
          && r.Packed_pr.cv_iterations = oracle.Pr.cv_iterations)
        domain_legs)

(* ---- Davies–Peck schedule (Port, shared coin stream) ---- *)

let dp_matches_twin =
  QCheck.Test.make ~count:50
    ~name:"packed Davies-Peck = boxed twin, covers" graph_gen
    (fun input ->
      let g = make_graph input in
      let csr = csr_of g in
      let delta = Stdlib.max 1 (G.max_degree g) in
      let oracle =
        Davies_peck.reference_run ~seed:11 ~max_rounds:10_000 g ~delta
      in
      List.for_all
        (fun (domains, par_threshold) ->
          let r, _ =
            Davies_peck.run ?par_threshold ~domains ~seed:11
              ~max_rounds:10_000 csr
          in
          Array.for_all2 Int.equal r.Davies_peck.mate oracle.Davies_peck.mate
          && r.Davies_peck.rounds = oracle.Davies_peck.rounds
          && Davies_peck.is_vertex_cover csr r)
        domain_legs)

let () =
  Alcotest.run "runtime"
    [
      ( "anon_ec",
        [
          QCheck_alcotest.to_alcotest reflection_agrees_with_lift;
          QCheck_alcotest.to_alcotest state_determined_by_view;
          Alcotest.test_case "run_until" `Quick run_until_halts;
          QCheck_alcotest.to_alcotest ec_active_equals_reference;
          Alcotest.test_case "differential edge cases" `Quick ec_edge_cases;
        ] );
      ( "anon_po",
        [
          Alcotest.test_case "loop reflection" `Quick po_loop_reflection;
          QCheck_alcotest.to_alcotest po_reflection_agrees_with_lift;
          Alcotest.test_case "orientation" `Quick po_orientation_matters;
          QCheck_alcotest.to_alcotest po_active_equals_reference;
        ] );
      ( "sync",
        [
          Alcotest.test_case "flood min" `Quick flood_min;
          Alcotest.test_case "staggered halting" `Quick sync_staggered_halting;
          Alcotest.test_case "non-halting detected" `Quick sync_reports_nonhalting;
        ] );
      ( "port",
        [
          QCheck_alcotest.to_alcotest ii_matches_twin;
          QCheck_alcotest.to_alcotest pr_matches_boxed;
          QCheck_alcotest.to_alcotest dp_matches_twin;
        ] );
    ]
