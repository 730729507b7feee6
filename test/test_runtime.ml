(* LOCAL runtime, one differential suite over every front-end of the
   round engine: the anonymous runners (loop reflection, active-set
   executor vs the dense oracle vs a forced 4-way split) and the packed
   port machines vs the packed dense oracle at 1 domain and at a forced
   multi-domain split. *)

module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Darts
module Anon = Ld_runtime.Anon
module Anon_ec = Ld_runtime.Anon_ec
module Anon_po = Ld_runtime.Anon_po
module Packed = Ld_runtime.Packed
module View = Ld_cover.View
module Lift = Ld_cover.Lift
module Gen = Ld_graph.Generators
module Labelled = Ld_models.Labelled
module Packed_ii = Ld_matching.Packed_ii
module Israeli_itai = Ld_matching.Israeli_itai
module Packed_pr = Ld_matching.Packed_pr
module Davies_peck = Ld_matching.Davies_peck

(* A full-information machine whose state after r rounds is (a hash of)
   the radius-r view: used to validate loop reflection against explicit
   lifts and view trees. *)
type probe = { seen : string }

(* The inbox as an assoc list in key order. *)
let to_list ib = List.rev (Anon.Inbox.fold (fun acc k m -> (k, m) :: acc) [] ib)

let probe_machine : (probe, string) Anon.machine =
  {
    init =
      (fun colours ->
        {
          seen =
            String.concat ","
              (List.init (Anon.Inbox.degree colours) (fun i ->
                   string_of_int (Anon.Inbox.key colours i)));
        });
    send = (fun s -> s.seen);
    recv =
      (fun s inbox ->
        {
          seen =
            s.seen ^ "|"
            ^ String.concat ";"
                (List.map
                   (fun (c, m) -> Printf.sprintf "%d<%s>" c m)
                   (to_list inbox));
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
      let arena = View.arena () in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same_view =
            View.equal
              (View.of_ec arena g u ~radius:(rounds + 1))
              (View.of_ec arena g v ~radius:(rounds + 1))
          in
          if same_view && states.(u).seen <> states.(v).seen then ok := false
        done
      done;
      !ok)

let run_until_halts () =
  (* Nodes halt after seeing [degree] rounds. *)
  let machine : (int * int, unit) Anon.machine =
    {
      init = (fun colours -> (Anon.Inbox.degree colours, 0));
      send = (fun _ -> ());
      recv = (fun (d, r) _ -> (d, r + 1));
      halted = (fun (d, r) -> r >= d);
    }
  in
  let g = Ld_models.Edge_colouring.ec_of_simple (Gen.star 4) in
  let _, rounds = Anon_ec.run_until machine ~max_rounds:100 g in
  Alcotest.(check int) "rounds = max degree" 4 rounds

(* A machine's [init] reads its node's colours in place, so preparing a
   run allocates nothing per dart. Greedy on a path whose nodes carry 17
   loops each (about 19 darts per node; colours 1 and 2 alternate along
   the path, loops take 3..19) matches every node in round 1: its state
   records and inbox lookups cost ~10 minor words per node, under one
   word per dart. A colour list per node would cost three words per
   dart on its own. *)
let greedy_run_allocation_bound () =
  let n = 2000 in
  let g =
    Ec.create ~n
      ~edges:(List.init (n - 1) (fun v -> (v, v + 1, 1 + (v mod 2))))
      ~loops:
        (List.concat_map
           (fun v -> List.init 17 (fun i -> (v, 3 + i)))
           (List.init n Fun.id))
  in
  assert (n < Ld_runtime.Engine.default_par_threshold);
  let darts = (Ec.edge_darts g).row.(n) + Ec.num_loops g in
  ignore (Ld_matching.Packing.greedy_colours g);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ld_matching.Packing.greedy_colours g));
  let words = Gc.minor_words () -. w0 in
  if words >= float_of_int darts then
    Alcotest.failf "greedy on %d darts: %.0f minor words" darts words

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

let diff_ec_machine ~salt ~quota_mod : (diff_st, int) Anon.machine =
  {
    init =
      (fun colours ->
        let degree = Anon.Inbox.degree colours in
        let weight = ref 0 in
        for i = 0 to degree - 1 do
          weight := !weight + Anon.Inbox.key colours i
        done;
        let weight = !weight in
        {
          h = (salt * 131) + (degree * 7) + weight;
          r = 0;
          quota = diff_quota ~quota_mod ~salt ~degree ~weight;
        });
    send = (fun s -> (s.h * 31) + s.r);
    recv =
      (fun s ib ->
        let h =
          Anon.Inbox.fold
            (fun acc colour m -> (acc * 1000003) lxor (colour * 7919) lxor m)
            s.h ib
        in
        let h =
          match Anon.Inbox.find ib (1 + (s.r mod 5)) with
          | None -> h
          | Some m -> (h * 31) lxor m
        in
        { s with h; r = s.r + 1 });
    halted = (fun s -> s.r >= s.quota);
  }

let diff_po_machine ~salt ~quota_mod : (diff_st, int) Anon.machine =
  {
    init =
      (fun keys ->
        let degree = Anon.Inbox.degree keys in
        let weight = ref 0 in
        for i = 0 to degree - 1 do
          let k = Anon.Inbox.key keys i in
          weight :=
            !weight + (2 * Darts.colour k) + if Darts.is_out k then 1 else 0
        done;
        let weight = !weight in
        {
          h = (salt * 131) + (degree * 7) + weight;
          r = 0;
          quota = diff_quota ~quota_mod ~salt ~degree ~weight;
        });
    send = (fun s -> (s.h * 31) + s.r);
    recv =
      (fun s ib ->
        let h =
          Anon.Inbox.fold
            (fun acc k m ->
              (acc * 1000003)
              lxor ((Darts.colour k * 7919) + if Darts.is_out k then 1 else 0)
              lxor m)
            s.h ib
        in
        let h =
          match
            Anon.Inbox.find ib (Darts.po_key ~out:(s.r mod 2 = 0) (1 + (s.r mod 5)))
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

(* A random edge-coloured tree whose nodes carry loops on about half of
   the colours their edges leave free, below and between the edge
   colours as well as above them. *)
let interleaved_loopy ~seed n =
  let st = Random.State.make [| seed |] in
  let base = Ld_models.Edge_colouring.ec_of_simple (Gen.random_tree ~seed n) in
  let top = Ec.max_colour base + 2 in
  let loops =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun c ->
            if Option.is_none (Ec.dart_by_colour base v c) && Random.State.bool st
            then Some (v, c)
            else None)
          (List.init top (fun i -> i + 1)))
      (List.init n Fun.id)
  in
  Ec.create ~n
    ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges base))
    ~loops

(* The proposal machine reads its inbox by index (colour, then message)
   and by colour: on edges and loops interleaved by colour, the
   active-set executor's merged inbox agrees with the dense reference. *)
let proposal_equals_reference =
  QCheck.Test.make ~count:40
    ~name:"EC proposal on interleaved loops = dense reference"
    (QCheck.pair (QCheck.int_range 1 12) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let g = interleaved_loopy ~seed n in
      let y, rounds = Ld_matching.Packing.proposal g in
      let y_ref, rounds_ref = Ld_matching.Packing.proposal_reference g in
      rounds = rounds_ref && Ld_fm.Fm.equal y y_ref && Ld_fm.Fm.is_maximal_fm y)

(* Indexed reads out of order: a machine that reads [key i] at init,
   and [key i] then [msg i] every round, in a fresh random index order,
   so the cursor steps forward, restarts when an index goes back, and
   jumps straight to a loopy node's last entry. Each read is checked
   against the in-order walk ([fold]) and against [find (key i)]; the
   keys read at init are checked against the node's keys listed from
   the graph's edges and loops. *)
type seek_st = { keys : int array; ok : bool; r : int; h : int }

let shuffled ~seed n =
  let st = Random.State.make [| seed; n |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let seek_machine ~seed : (seek_st, int) Anon.machine =
  {
    init =
      (fun ib ->
        let d = Anon.Inbox.degree ib in
        let keys = Array.make d 0 in
        Array.iter (fun i -> keys.(i) <- Anon.Inbox.key ib i) (shuffled ~seed d);
        { keys; ok = true; r = 0; h = Array.fold_left (fun acc k -> (acc * 31) + k) d keys });
    send = (fun s -> s.h);
    recv =
      (fun s ib ->
        let d = Anon.Inbox.degree ib in
        let in_order =
          Array.of_list (List.rev (Anon.Inbox.fold (fun acc _ m -> m :: acc) [] ib))
        in
        let read_ok i =
          let k = Anon.Inbox.key ib i in
          let m = Anon.Inbox.msg ib i in
          k = s.keys.(i) && m = in_order.(i)
          && Option.equal Int.equal (Anon.Inbox.find ib k) (Some m)
        in
        let order = shuffled ~seed:(seed + s.h + s.r) d in
        {
          keys = s.keys;
          ok = s.ok && d = Array.length s.keys && Array.for_all read_ok order;
          r = s.r + 1;
          h = Array.fold_left (fun acc m -> (acc * 1000003) lxor m) s.h in_order;
        });
    halted = (fun s -> s.r >= 3);
  }

let reads_agree expected states =
  Array.for_all Fun.id
    (Array.mapi
       (fun v s ->
         s.ok && s.r = 3 && List.equal Int.equal (Array.to_list s.keys) (expected v))
       states)

let ec_indexed_reads_out_of_order =
  QCheck.Test.make ~count:40
    ~name:"EC indexed reads out of order = merged keys and find"
    (QCheck.triple (QCheck.int_range 1 12) (QCheck.int_range 0 999)
       (QCheck.int_range 0 999))
    (fun (n, seed, order_seed) ->
      let g = interleaved_loopy ~seed n in
      let expected v =
        List.sort Int.compare
          (List.filter_map
             (fun (e : Ec.edge) ->
               if e.u = v || e.v = v then Some e.colour else None)
             (Ec.edges g)
          @ List.filter_map
              (fun (l : Ec.loop) -> if l.node = v then Some l.colour else None)
              (Ec.loops g))
      in
      reads_agree expected
        (Anon_ec.run (seek_machine ~seed:order_seed) ~rounds:3 g))

let po_indexed_reads_out_of_order =
  QCheck.Test.make ~count:40
    ~name:"PO indexed reads out of order = dart keys and find"
    (QCheck.triple (QCheck.int_range 1 12) (QCheck.int_range 0 999)
       (QCheck.int_range 0 999))
    (fun (n, seed, order_seed) ->
      let g = Po.of_ec (interleaved_loopy ~seed n) in
      let expected v =
        List.sort Int.compare
          (List.map
             (fun d -> Darts.po_key ~out:(Po.dart_is_out d) (Po.dart_colour d))
             (Po.darts g v))
      in
      reads_agree expected
        (Anon_po.run (seek_machine ~seed:order_seed) ~rounds:3 g))

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
  let csr = Csr.greedy path in
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
    ]

(* ------------------------------------------------------------------ *)

(* PO probe: also checks that out/in darts are distinguished. *)
type po_probe = { po_seen : string }

let po_name k =
  Printf.sprintf "%s%d" (if Darts.is_out k then "+" else "-") (Darts.colour k)

let po_probe_machine : (po_probe, string) Anon.machine =
  {
    init =
      (fun keys ->
        {
          po_seen =
            String.concat ","
              (List.init (Anon.Inbox.degree keys) (fun i ->
                   po_name (Anon.Inbox.key keys i)));
        });
    send = (fun s -> s.po_seen);
    recv =
      (fun s inbox ->
        {
          po_seen =
            s.po_seen ^ "|"
            ^ String.concat ";"
                (List.map
                   (fun (k, m) -> Printf.sprintf "%s<%s>" (po_name k) m)
                   (to_list inbox));
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

(* ------------------------------------------------------------------ *)
(* Packed port machines vs the dense oracle.                           *)

let graph_gen = QCheck.triple (QCheck.int_range 0 25) (QCheck.int_range 0 6) (QCheck.int_range 0 1000)

let make_graph (n, d, seed) = Gen.random_bounded_degree ~seed n d
let csr_of = Csr.greedy

(* Both split modes the executors distinguish: the sequential path and
   a forced 4-way parallel split. *)
let domain_legs = [ (1, None); (4, Some 0) ]

(* [run_until] at every leg = [reference_run]: the whole state array,
   the round count and the halting flag. *)
let agrees_with_reference m ~max_rounds csr =
  let st_ref, rounds_ref, halted_ref =
    Packed.Port.reference_run m ~max_rounds csr
  in
  List.for_all
    (fun (domains, par_threshold) ->
      let st, stats, halted =
        Packed.Port.run_until ?par_threshold ~domains m ~max_rounds csr
      in
      Array.for_all2 Int.equal st st_ref
      && stats.Packed.rounds = rounds_ref
      && Bool.equal halted halted_ref)
    domain_legs

(* A packed machine that hashes every message it receives into word 1
   of its slice and counts rounds in word 0; its per-port messages
   depend on the hash, so any missed or stale delivery shows in the
   final states. Node [v] halts after [quota v] rounds, never if that
   is negative. *)
let hashing_machine ~quota : Packed.Port.machine =
  {
    state_words = 2;
    msg_words = 1;
    init =
      (fun ~g:_ ~st ~lo ~hi ->
        for node = lo to hi - 1 do
          st.(2 * node) <- 0;
          st.((2 * node) + 1) <- node
        done);
    send =
      (fun ~g ~st ~out ~frozen nodes ~lo ~hi ->
        for k = lo to hi - 1 do
          let node = nodes.(k) in
          let lo = g.Csr.row.(node) in
          for d = lo to g.Csr.row.(node + 1) - 1 do
            out.(d) <- (st.((2 * node) + 1) * 7) + d - lo
          done;
          if quota node >= 0 && st.(2 * node) >= quota node then
            Bytes.set frozen node '\001'
        done);
    recv =
      (fun ~g ~st ~out nodes ~lo ~hi ->
        for k = lo to hi - 1 do
          let node = nodes.(k) in
          let h = ref st.((2 * node) + 1) in
          for d = g.Csr.row.(node) to g.Csr.row.(node + 1) - 1 do
            h := (!h * 31) lxor out.(g.Csr.mirror.(d))
          done;
          st.((2 * node) + 1) <- !h;
          st.(2 * node) <- st.(2 * node) + 1
        done);
  }

let port_edge_cases () =
  let csr = csr_of (Gen.random_bounded_degree ~seed:3 12 4) in
  let case what ~quota ~max_rounds csr ~rounds ~halted =
    let m = hashing_machine ~quota in
    let _, r, h = Packed.Port.reference_run m ~max_rounds csr in
    Alcotest.(check int) (what ^ ": rounds") rounds r;
    Alcotest.(check bool) (what ^ ": all halted") halted h;
    Alcotest.(check bool) (what ^ ": run_until agrees") true
      (agrees_with_reference m ~max_rounds csr)
  in
  case "halt at init" ~quota:(fun _ -> 0) ~max_rounds:10 csr ~rounds:0
    ~halted:true;
  case "never halts" ~quota:(fun _ -> -1) ~max_rounds:10 csr ~rounds:10
    ~halted:false;
  case "max_rounds:0" ~quota:(fun _ -> 3) ~max_rounds:0 csr ~rounds:0
    ~halted:false;
  (* Halted senders keep delivering their final messages. *)
  case "staggered halting" ~quota:(fun v -> v mod 4) ~max_rounds:10 csr
    ~rounds:3 ~halted:true;
  case "empty graph" ~quota:(fun _ -> -1) ~max_rounds:10
    (csr_of (G.create 0 []))
    ~rounds:0 ~halted:true;
  case "edgeless graph" ~quota:(fun v -> v) ~max_rounds:10
    (csr_of (G.create 5 []))
    ~rounds:4 ~halted:true

(* What [Davies_peck.run] and [Packed_pr.run] build: DP's default
   schedule, and PR's machine with its schedule length. *)
let dp_sched csr =
  { Davies_peck.delta = Stdlib.max 1 (Csr.max_degree csr); iters_per_class = 2 }

let pr_machine csr =
  let delta = Stdlib.max 1 (Csr.max_degree csr) in
  let id_bits =
    Ld_matching.Cole_vishkin.bits_needed (Stdlib.max 0 (csr.Csr.n - 1))
  in
  let sched = Packed_pr.schedule ~delta ~id_bits in
  (Packed_pr.machine ~sched ~delta, Array.length sched)

(* ---- Israeli–Itai (shared coin stream) ---- *)

let ii_matches_reference =
  QCheck.Test.make ~count:50 ~name:"packed II = reference_run (all domains)"
    graph_gen
    (fun input ->
      let csr = csr_of (make_graph input) in
      agrees_with_reference (Packed_ii.machine ~seed:7) ~max_rounds:10_000 csr
      && Packed_ii.is_maximal csr
           (fst (Packed_ii.run ~seed:7 ~max_rounds:10_000 csr)))

(* ---- Israeli–Itai (per-node Random.State coins, seeded by id) ---- *)

let ii_ids_matches_reference =
  QCheck.Test.make ~count:50
    ~name:"Israeli-Itai machine = reference_run (all domains, permuted ids)"
    graph_gen
    (fun ((n, _, seed) as input) ->
      let g = make_graph input in
      let ids = Array.init n (fun v -> ((v * 7919) + seed) mod 100_003) in
      let idg = Labelled.Id.create g ids in
      agrees_with_reference
        (Israeli_itai.machine ~seed:5 idg)
        ~max_rounds:10_000 (csr_of g)
      && Israeli_itai.is_maximal g
           (Israeli_itai.run ~seed:5 ~max_rounds:10_000 idg))

(* ---- Panconesi–Rizzi (deterministic) ---- *)

let pr_matches_reference =
  QCheck.Test.make ~count:50 ~name:"packed PR = reference_run (all domains)"
    graph_gen
    (fun input ->
      let csr = csr_of (make_graph input) in
      let m, max_rounds = pr_machine csr in
      let r, _ = Packed_pr.run csr in
      agrees_with_reference m ~max_rounds csr
      && Packed_pr.is_maximal csr r
      && (csr.Csr.n = 0 || r.Packed_pr.rounds = max_rounds))

(* ---- Davies–Peck schedule (shared coin stream) ---- *)

let dp_matches_reference =
  QCheck.Test.make ~count:50
    ~name:"packed Davies-Peck = reference_run, covers" graph_gen
    (fun input ->
      let csr = csr_of (make_graph input) in
      agrees_with_reference
        (Davies_peck.machine ~seed:11 ~sched:(dp_sched csr))
        ~max_rounds:10_000 csr
      && Davies_peck.is_vertex_cover csr
           (fst (Davies_peck.run ~seed:11 ~max_rounds:10_000 csr)))

(* ---- the 7-bit port fields at their limit ---- *)

(* A centre of degree 62 whose port 61 is stored as 62 in a 7-bit
   field: a star with 62 leaves, every other leaf carrying a pendant
   node. Each machine must agree with [reference_run] (whole states,
   rounds and halting flag, at every leg and at a forced 2-domain
   split) and stop maximal, and over the seeds the centre must match
   through port 61. Degree 63 is rejected. *)
let degree_limit_graph k =
  G.create
    (k + 1 + (k / 2))
    (List.init k (fun i -> (0, i + 1))
    @ List.init (k / 2) (fun i -> ((2 * i) + 1, k + 1 + i)))

let degree_62_boundary () =
  let g = degree_limit_graph 62 in
  let csr = csr_of g in
  Alcotest.(check int) "max degree" 62 (Csr.max_degree csr);
  let ids = Array.init csr.Csr.n (fun v -> (v * 7919) mod 100_003) in
  let idg = Labelled.Id.create g ids in
  let port_61 = csr.Csr.endpoint.(csr.Csr.row.(0) + 61) in
  let max_rounds = 10_000 in
  List.iter
    (fun (what, m) ->
      (* The centre proposes through port 61 with probability about
         1/124 per iteration, so the seeds run until it matches there. *)
      let rec via_61 seed =
        seed < 2000
        &&
        let st, _, _ = Packed.Port.reference_run (m seed) ~max_rounds csr in
        let mate = Packed_ii.mates ~who:what csr st in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: maximal" what seed)
          true
          (Packed_ii.is_maximal csr { Packed_ii.mate; rounds = 0 });
        mate.(0) = port_61 || via_61 (seed + 1)
      in
      Alcotest.(check bool) (what ^ ": centre matched through port 61") true
        (via_61 0);
      for seed = 0 to 9 do
        let m = m seed in
        let st_ref, _, _ = Packed.Port.reference_run m ~max_rounds csr in
        let st2, _, _ =
          Packed.Port.run_until ~par_threshold:0 ~domains:2 m ~max_rounds csr
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: = reference_run at 1, 2 and 4 domains"
             what seed)
          true
          (agrees_with_reference m ~max_rounds csr
          && Array.for_all2 Int.equal st2 st_ref)
      done)
    [
      ("II", fun seed -> Packed_ii.machine ~seed);
      ("DP", fun seed -> Davies_peck.machine ~seed ~sched:(dp_sched csr));
      ("ID Israeli-Itai", fun seed -> Israeli_itai.machine ~seed idg);
    ];
  let g63 = degree_limit_graph 63 in
  let csr63 = csr_of g63 in
  let rejected what f =
    Alcotest.(check bool) (what ^ ": degree 63 rejected") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejected "II" (fun () ->
      ignore (Packed_ii.run ~domains:1 ~seed:0 ~max_rounds:100 csr63));
  rejected "DP" (fun () ->
      ignore (Davies_peck.run ~domains:1 ~seed:0 ~max_rounds:100 csr63));
  rejected "ID Israeli-Itai" (fun () ->
      ignore
        (Israeli_itai.run ~seed:0 ~max_rounds:100
           (Labelled.Id.create g63 (Array.init (G.n g63) Fun.id))))

(* ---- pinned outputs and allocation ---- *)

(* [reference_run] runs the same closures as [run_until], so it cannot
   see a rewrite that changes a protocol. These digests of the final
   [run_until] state array, with the rounds and sends, were recorded
   before the machines became allocation-free (in-place slices, one-word
   Panconesi–Rizzi messages) and pin every machine to that protocol. *)
let pin_graphs =
  lazy
    [
      ("tree", Gen.stream_biregular_tree ~d:3 ~delta:8 10_000);
      ("perm", Csr.greedy (Gen.perm_regular ~seed:1 10_000 8));
    ]

let pin_max_rounds = 100_000

let pinned_machine algo seed csr =
  match algo with
  | "ii" -> (Packed_ii.machine ~seed, pin_max_rounds)
  | "dp" -> (Davies_peck.machine ~seed ~sched:(dp_sched csr), pin_max_rounds)
  | _ -> pr_machine csr

(* (machine, graph, seed, state digest, rounds, sends) *)
let pinned =
  [
    ("ii", "tree", 0, "aa89e276e630fc61b88944e3fd8d7186", 30, 96492);
    ("ii", "tree", 1, "e247fcfdbe3a4bcb1fcb9666d46da7b8", 26, 94706);
    ("ii", "tree", 2, "ffc801a8577e2447713ad8351d4260c7", 20, 96748);
    ("dp", "tree", 0, "0901ec15b16c4a29568d827b3af50f51", 28, 187132);
    ("dp", "tree", 1, "b1eedc12fffd5f209a6e7b7a2c208cea", 26, 188074);
    ("dp", "tree", 2, "63d3fcdb7ac1f17ed226dc41410879a6", 26, 186638);
    ("pr", "tree", 0, "16e561297981528145374d607928c776", 60, 1219878);
    ("ii", "perm", 0, "a00747ac24128dcb1c1ea60709a2bb26", 30, 513544);
    ("ii", "perm", 1, "dbd3a33213f6df3a2c52019f2c816665", 28, 517630);
    ("ii", "perm", 2, "37d33dbfa0a16a8ba0086d7f6e400b4b", 28, 521092);
    ("dp", "perm", 0, "0ef89acd2a88c9574860d3adf8d9b6f7", 34, 571008);
    ("dp", "perm", 1, "238551dffc3bc8187b46422ab3b32aad", 36, 585530);
    ("dp", "perm", 2, "6532d2bc9eb873ff60adae36f9e17254", 32, 580888);
    ("pr", "perm", 0, "9be849b7f660f0e9d45d49e736f6b79d", 60, 4877682);
  ]

(* MD5 of the state array as little-endian 64-bit words, in the
   node-major order the pins were recorded in: node [v]'s words
   contiguous. Panconesi–Rizzi stores word [k] of node [v] at
   [k * n + v] (field-major), so its array is transposed first.
   Israeli–Itai and Davies–Peck keep a 3-word slice (coin, live mask,
   control word), which is unpacked into the recorded 6/7-word slice:
   coin, live, matched, phase, proposal, accept, and for Davies–Peck
   the iteration counter. *)
let state_digest ~algo ~n st =
  let st =
    if n = 0 then st
    else if algo = "pr" then
      let sw = Array.length st / n in
      Array.init (Array.length st) (fun i -> st.(((i mod sw) * n) + (i / sw)))
    else
      let port ctrl sh = ((ctrl lsr sh) land 0x7f) - 1 in
      let unpack v =
        let b = v * Packed_ii.words in
        let ctrl = st.(b + 2) in
        [ st.(b); st.(b + 1); port ctrl 0; (ctrl lsr 7) land 1; port ctrl 8;
          port ctrl 16 ]
        @ if algo = "dp" then [ ctrl lsr 24 ] else []
      in
      Array.of_list (List.concat_map unpack (List.init n Fun.id))
  in
  let b = Buffer.create (8 * Array.length st) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) st;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_outputs () =
  List.iter
    (fun (algo, gname, seed, digest, rounds, sends) ->
      let csr = List.assoc gname (Lazy.force pin_graphs) in
      let m, max_rounds = pinned_machine algo seed csr in
      let st, stats, halted =
        Packed.Port.run_until ~domains:1 m ~max_rounds csr
      in
      let what = Printf.sprintf "%s %s seed %d" algo gname seed in
      Alcotest.(check string) (what ^ ": state digest") digest
        (state_digest ~algo ~n:csr.Csr.n st);
      Alcotest.(check int) (what ^ ": rounds") rounds stats.Packed.rounds;
      Alcotest.(check int) (what ^ ": sends") sends stats.Packed.sends;
      Alcotest.(check bool) (what ^ ": halted") true halted)
    pinned

(* [packed.mli] promises no per-round allocation: a whole run at
   10^4 nodes (its arrays go straight to the major heap) stays within a
   constant number of minor words, whatever the rounds. *)
let runs_allocation_free () =
  let budget = 2048. in
  List.iter
    (fun (gname, csr) ->
      let minor what f =
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (f ()));
        let words = Gc.minor_words () -. w0 in
        if words >= budget then
          Alcotest.failf "%s on %s: %.0f minor words (budget %.0f)" what gname
            words budget
      in
      minor "Packed_ii.run" (fun () ->
          Packed_ii.run ~domains:1 ~seed:0 ~max_rounds:pin_max_rounds csr);
      minor "Davies_peck.run" (fun () ->
          Davies_peck.run ~domains:1 ~seed:0 ~max_rounds:pin_max_rounds csr);
      minor "Packed_pr.run" (fun () -> Packed_pr.run ~domains:1 csr))
    (Lazy.force pin_graphs)

(* A run's major-heap words are its own arrays: the state slices, the
   message slots, the engine's worklist and frozen bytes, and the mates.
   The mirror comes with the graph, so no second per-dart table
   ([row.(n)] words) is built per run. The slack covers the headers and
   whatever the run's few hundred minor words promote. *)
let run_allocates_no_dart_table () =
  let csr = List.assoc "tree" (Lazy.force pin_graphs) in
  let n = csr.Csr.n and nd = csr.Csr.row.(csr.Csr.n) in
  let expected = (Packed_ii.words * n) + nd + n + (n / 8) + n in
  let slack = 1024 in
  let major () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  let w0 = major () in
  ignore
    (Sys.opaque_identity
       (Packed_ii.run ~domains:1 ~seed:0 ~max_rounds:pin_max_rounds csr));
  let words = Float.to_int (major () -. w0) in
  if words > expected + slack then
    Alcotest.failf "Packed_ii.run on tree: %d major words (budget %d + %d)" words
      expected slack

let () =
  Alcotest.run "runtime"
    [
      ( "anon_ec",
        [
          QCheck_alcotest.to_alcotest reflection_agrees_with_lift;
          QCheck_alcotest.to_alcotest state_determined_by_view;
          Alcotest.test_case "run_until" `Quick run_until_halts;
          Alcotest.test_case "greedy allocates under a word per dart" `Quick
            greedy_run_allocation_bound;
          QCheck_alcotest.to_alcotest ec_active_equals_reference;
          QCheck_alcotest.to_alcotest proposal_equals_reference;
          Alcotest.test_case "differential edge cases" `Quick ec_edge_cases;
          QCheck_alcotest.to_alcotest ec_indexed_reads_out_of_order;
        ] );
      ( "anon_po",
        [
          Alcotest.test_case "loop reflection" `Quick po_loop_reflection;
          QCheck_alcotest.to_alcotest po_reflection_agrees_with_lift;
          Alcotest.test_case "orientation" `Quick po_orientation_matters;
          QCheck_alcotest.to_alcotest po_active_equals_reference;
          QCheck_alcotest.to_alcotest po_indexed_reads_out_of_order;
        ] );
      ( "port",
        [
          QCheck_alcotest.to_alcotest ii_matches_reference;
          QCheck_alcotest.to_alcotest ii_ids_matches_reference;
          QCheck_alcotest.to_alcotest pr_matches_reference;
          QCheck_alcotest.to_alcotest dp_matches_reference;
          Alcotest.test_case "degree 62: port 61 in a 7-bit field" `Quick
            degree_62_boundary;
          Alcotest.test_case "differential edge cases" `Quick port_edge_cases;
          Alcotest.test_case "pinned states, rounds and sends" `Quick
            pinned_outputs;
          Alcotest.test_case "a run allocates no per-dart table" `Quick
            run_allocates_no_dart_table;
          Alcotest.test_case "runs allocate O(1) minor words" `Quick
            runs_allocation_free;
        ] );
    ]
