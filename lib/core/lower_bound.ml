module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q
module Lift = Ld_cover.Lift
module Refinement = Ld_cover.Refinement
module Propagation = Ld_fm.Propagation
module Obs = Ld_obs.Obs
module Pool = Ld_pool.Pool

(* Adversary-level metrics: probes (algorithm invocations on adversary
   graphs), certificate/refutation outcomes, and the fate of memoised
   frontier replays — hits replay the cached construction, refutations
   stop a replay early, divergences fall back to a full run.
   [incremental_seeded] counts view checks answered against a composed
   covering anchor instead of the full unfolded graph; [replays] counts
   levels whose graphs were rebuilt from a trail. *)
let c_probes = Obs.Counter.make "core.lb.probes"
let c_certificates = Obs.Counter.make "core.lb.certificates"
let c_refutations = Obs.Counter.make "core.lb.refutations"
let c_memo_hits = Obs.Counter.make "core.lb.memo_replay_hits"
let c_memo_refuted = Obs.Counter.make "core.lb.memo_replay_refuted"
let c_memo_diverged = Obs.Counter.make "core.lb.memo_diverged"
let c_incremental = Obs.Counter.make "core.lb.incremental_seeded"
let c_replays = Obs.Counter.make "core.lb.replays"

(* Probe latency histogram; [Hist.timed_span] keeps emitting the same
   "core.lb.probe" span events the trace consumers already expect. *)
let h_probe = Ld_obs.Hist.make "core.lb.probe"

type algorithm = Ld_matching.Packing.algorithm = {
  name : string;
  run : Ec.t -> Fm.t;
}

(* A value built on first use. The memo lives in the replay chain the
   closure reads (see [chain] below), which is what makes forcing
   domain-safe. *)
type 'a deferred = unit -> 'a

let force d = d ()
let given x () = x

type step =
  | Base of { delta : int; removed : int; changed : int }
  | Unfold of { side : [ `G | `H ]; g_star : int; loop_target : int }

type certificate = {
  level : int;
  trail : step array;
  g_graph : Ec.t deferred;
  h_graph : Ec.t deferred;
  g_node : int;
  h_node : int;
  colour : int;
  g_loop : int;
  h_loop : int;
  g_weight : Q.t;
  h_weight : Q.t;
  views_checked : bool;
}

type failure = {
  fail_level : int;
  fail_graph : Ec.t;
  fail_output : Fm.t;
  fail_violations : Fm.violation list;
  fail_lift : Lift.covering;
  fail_note : string;
}

type outcome =
  | Certified of certificate list
  | Refuted of certificate list * failure

(* One level's pair (G, H) together with the distinguished nodes g, h
   and the colour-c loops e, f on which A's outputs disagree:
   everything the next unfold-and-mix reads. *)
type pair = {
  gr : Ec.t;
  hr : Ec.t;
  g : int;
  h : int;
  c : int;
  e : int; (* loop id in gr *)
  f : int; (* loop id in hr *)
}

(* The running state of the induction: the pair, the choice that
   produced it, and A's outputs y_G = A(G) and y_H = A(H).

   [anchor]/[amap] make the P1 view checks incremental across adjacent
   levels: [gr] is produced by a chain of 2-lifts from some smaller
   ancestor (level i+1's unfolding extends level i's), and covering maps
   preserve universal-cover views exactly at every radius, so
   τ_r(gr, v) ≅ τ_r(anchor, amap.(v)) for all r. The views check can
   therefore refine [anchor ∪ GH] instead of [target ∪ GH]; the anchor
   only resets (to the previous mixture) when the construction switches
   to the H side, whose graph is not a lift of anything smaller. *)
type level_state = {
  i : int;
  pair : pair;
  choice : step;
  y_g : Fm.t;
  y_h : Fm.t;
  anchor : Ec.t; (* deepest non-lift ancestor of gr *)
  amap : int array; (* composed covering map: node of gr -> node of anchor *)
}

exception Refutation of failure

(* A refuted probe's witness is Lemma-2 style: the output of a
   lift-invariant algorithm fails on the loop-free 2-lift whenever it
   fails on the loopy base (an unsaturated loop becomes an edge with two
   unsaturated endpoints; other violations pull back verbatim). On the
   loopy graphs of this construction, maximality already forces full
   saturation (Lemma 2): every node carries a loop, and an unsaturated
   loop endpoint is a maximality violation. *)
let check_feasible ~level graph output =
  let violations = Fm.feasibility_violations output in
  if violations <> [] then
    raise
      (Refutation
         {
           fail_level = level;
           fail_graph = graph;
           fail_output = output;
           fail_violations = violations;
           fail_lift = Lift.double graph;
           fail_note =
             "output is not a fully saturated maximal fractional matching \
              on a loopy EC-graph (cf. Lemma 2); the violation persists on \
              the loop-free 2-lift [fail_lift]";
         })

(* A feasibility probe in the exact order [run] checks feasibility —
   level 0: G_0 then H_0; level i: GG, HH, GH — with its feasibility
   threshold. The memoisation cache below replays these against other
   algorithms instead of rebuilding the construction. *)
type probe = {
  probe_level : int;
  prefix_round : int;
  probe_graph : Ec.t deferred;
}

(* [on_probe] sees every probe before its feasibility check, so that a
   refuted base algorithm's failing graph is recorded too. *)
let run_checked ~on_probe ~level algo graph =
  Obs.Counter.incr c_probes;
  let y = Ld_obs.Hist.timed_span h_probe (fun () -> algo.run graph) in
  Obs.with_span "core.lb.on_probe" (fun () -> on_probe graph y);
  check_feasible ~level graph y;
  y

let base_graph delta =
  Ec.create ~n:1 ~edges:[] ~loops:(List.init delta (fun c -> (0, c + 1)))

(* Level 0's pair: loop [changed] of G_0 is loop
   [changed < removed ? changed : changed - 1] of H_0 = G_0 - [removed]. *)
let base_pair g0 h0 ~removed ~changed =
  {
    gr = g0;
    hr = h0;
    g = 0;
    h = 0;
    c = (Ec.loop g0 changed).colour;
    e = changed;
    f = (if changed < removed then changed else changed - 1);
  }

(* Base case (Fig. 5). *)
let base_case ~on_probe ~delta algo =
  Obs.with_span "core.lb.base_case" @@ fun () ->
  let g0 = base_graph delta in
  let y0 = run_checked ~on_probe ~level:0 algo g0 in
  (* Saturation means some loop has positive weight. *)
  let removed =
    match
      List.find_index (fun id -> Q.sign (Fm.loop_weight y0 id) > 0)
        (List.init delta Fun.id)
    with
    | Some id -> id
    | None -> assert false (* fully saturated => positive weight exists *)
  in
  let h0 = Ec.remove_loop g0 removed in
  let y0' = run_checked ~on_probe ~level:0 algo h0 in
  (* Find a surviving loop whose weight changed. *)
  let changed =
    List.find_opt
      (fun j ->
        let j' = if j < removed then j else j - 1 in
        j <> removed
        && not (Q.equal (Fm.loop_weight y0 j) (Fm.loop_weight y0' j')))
      (List.init delta Fun.id)
  in
  match changed with
  | None ->
    (* Impossible for feasible outputs: both saturate the node, and the
       removed loop had positive weight. *)
    assert false
  | Some changed ->
    {
      i = 0;
      pair = base_pair g0 h0 ~removed ~changed;
      choice = Base { delta; removed; changed };
      y_g = y0;
      y_h = y0';
      anchor = g0;
      amap = [| 0 |];
    }

(* The mixture GH (Fig. 6): copy of (G - e), copy of (H - f), and a new
   colour-c crossing edge between g and h. Copy A keeps G's node, edge
   and (filtered) loop ids; copy B shifts H's nodes by [n G]. Surviving
   loops keep their relative order, so G-loop j (j <> e) has GH-loop id
   [j < e ? j : j-1], and H-loop j has id [num_loops G - 1 + (j < f ? j : j-1)]. *)
let mix p =
  let { gr; hr; g; h; c; e; f } = p in
  let le = Ec.loop gr e and lf = Ec.loop hr f in
  assert (le.node = g && lf.node = h && le.colour = c);
  Ec.splice gr ~loop:e hr ~loop:f

(* A level's three probe graphs (Fig. 6): the unfoldings GG, HH (with
   their covering maps) and the mixture GH. *)
let unfold_and_mix p =
  let cov_gg, cov_hh =
    Obs.with_span "core.lb.unfold" (fun () ->
        (Lift.unfold_loop p.gr ~loop_id:p.e, Lift.unfold_loop p.hr ~loop_id:p.f))
  in
  (cov_gg, cov_hh, Obs.with_span "core.lb.mix" (fun () -> mix p))

(* The next level's pair once the adversary has chosen its side, g★ and
   loop: the unfolded side becomes G, the mixture becomes H, and g★'s
   loop is found again inside the mixture (copy A ids coincide with the
   G side's; on the H side nodes shift by |G| and loops by the |G| - 1
   loops of G - e). *)
let advance p ~gg ~hh ~gh ~side ~g_star ~loop_target =
  let target = match side with `G -> gg | `H -> hh in
  let h, f =
    match side with
    | `G -> (g_star, loop_target)
    | `H -> (Ec.n p.gr + g_star, Ec.num_loops p.gr - 1 + loop_target)
  in
  {
    gr = target;
    hr = gh;
    g = g_star;
    h;
    c = (Ec.loop target loop_target).colour;
    e = loop_target;
    f;
  }

(* Transport the side-local weights of y_mix (an FM on the mixture GH or
   on the 2-lift) onto the unfolded graph [target = GG or HH], producing
   the y' of §4.3: identical to A's output on [target] outside the side
   we walk in, and equal to A's output on the mixture inside it.

   [side] selects which copy: `G means copy A of GG vs copy A of GH
   (identity on ids); `H means copy A of HH vs copy B of GH (node shift
   ng, edge shift mg, loop shift |keep G|). *)
let transport ~side ~pair ~target ~y_target ~y_mix =
  let { gr; hr; _ } = pair in
  let mg = Ec.num_edges gr in
  let lg = Ec.num_loops gr - 1 (* loops of G - e *) in
  let side_edges, side_loops, edge_shift, loop_shift =
    match side with
    | `G -> (mg, lg, 0, 0)
    | `H -> (Ec.num_edges hr, Ec.num_loops hr - 1, mg, lg)
  in
  let edge_w = Array.copy (Fm.edge_weights y_target)
  and loop_w = Array.copy (Fm.loop_weights y_target) in
  Array.blit (Fm.edge_weights y_mix) edge_shift edge_w 0 side_edges;
  Array.blit (Fm.loop_weights y_mix) loop_shift loop_w 0 side_loops;
  (* The crossing edge is the last edge of both graphs. *)
  edge_w.(Ec.num_edges target - 1) <-
    Fm.edge_weight y_mix (mg + Ec.num_edges hr);
  Fm.create target ~edge_w ~loop_w

(* One unfold-and-mix step (Fig. 6 + Fig. 7). This `step` is the
   adversary driver, not an executor machine transition; it
   legitimately fans out over Pool (whose env-var fallback may warn
   on stderr once at startup). *)
(* ld-lint: allow machine-purity — adversary driver, not a transition *)
let step ~on_probe ~delta ~algo ~check_views state =
  let level = state.i + 1 in
  Obs.with_span ~args:[ ("level", string_of_int level) ] "core.lb.level"
  @@ fun () ->
  let p = state.pair in
  let cov_gg, cov_hh, gh = unfold_and_mix p in
  let gg = cov_gg.Lift.total and hh = cov_hh.Lift.total in
  (* P2 and P3 for the freshly built graphs. *)
  Obs.with_span "core.lb.p2p3" (fun () ->
      List.iter
        (fun x ->
          assert (Ec.min_loops x >= delta - 1 - level);
          assert (Ec.max_degree x <= delta);
          assert (Ec.is_tree_plus_loops x))
        [ gg; hh; gh ]);
  (* The three probes of a level are independent runs of A — fan them
     out over the pool (submission-order join keeps results, and
     therefore everything downstream, deterministic), then record and
     feasibility-check sequentially in the canonical GG, HH, GH order so
     the probe log and the failing probe are exactly the sequential
     ones. *)
  let y_gg, y_hh, y_gh =
    match
      Pool.map
        (fun graph -> Ld_obs.Hist.timed_span h_probe (fun () -> algo.run graph))
        [ gg; hh; gh ]
    with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let accept graph y =
    Obs.Counter.incr c_probes;
    Obs.with_span "core.lb.on_probe" (fun () -> on_probe graph y);
    check_feasible ~level graph y
  in
  accept gg y_gg;
  accept hh y_hh;
  accept gh y_gh;
  (* Condition (2) of the EC model: A commutes with 2-lifts. *)
  Obs.with_span "core.lb.lift_check" (fun () ->
      if not (Fm.is_pull_back cov_gg ~base:state.y_g ~total:y_gg) then
        failwith
          (algo.name
         ^ ": not lift-invariant (output on 2-lift GG differs from pulled-back \
            output on G) — not an EC-model algorithm");
      if not (Fm.is_pull_back cov_hh ~base:state.y_h ~total:y_hh) then
        failwith (algo.name ^ ": not lift-invariant on HH"));
  let w_e = Fm.loop_weight state.y_g p.e in
  let w_f = Fm.loop_weight state.y_h p.f in
  let crossing_gh = Ec.num_edges gh - 1 in
  let w_cross = Fm.edge_weight y_gh crossing_gh in
  assert (not (Q.equal w_e w_f));
  (* Choose the side whose unfolded weight differs from the crossing
     weight; at least one does since w_e <> w_f. *)
  let side, target, y_target, start =
    if not (Q.equal w_cross w_e) then (`G, gg, y_gg, p.g) else (`H, hh, y_hh, p.h)
  in
  let y' =
    Obs.with_span "core.lb.transport" (fun () ->
        transport ~side ~pair:p ~target ~y_target ~y_mix:y_gh)
  in
  let first =
    match Ec.dart_by_colour target start p.c with
    | Some d -> d
    | None -> assert false (* the crossing edge has colour c at start *)
  in
  let g_star, loop_target =
    match
      Obs.with_span "core.lb.propagation" (fun () ->
          Propagation.walk ~y:y_target ~y':y' ~start ~first)
    with
    | Propagation.Loop_found { node; loop_id; _ } -> (node, loop_id)
    | Propagation.Stuck { node; _ } ->
      (* Impossible once feasibility was checked: every node saturated
         and Fact 3 applies. *)
      failwith
        (Printf.sprintf
           "propagation walk stuck at node %d despite feasible outputs" node)
  in
  (* The same objects inside the mixture GH: the next pair. *)
  let next =
    Obs.with_span "core.lb.advance" (fun () ->
        advance p ~gg ~hh ~gh ~side ~g_star ~loop_target)
  in
  assert (
    not
      (Q.equal (Fm.loop_weight y_target next.e) (Fm.loop_weight y_gh next.f)));
  (* Compose the covering chain for the side we walked into: the new gr
     is a 2-lift of the old gr (side `G) or of the old mixture (side
     `H). Either way τ_r(target, v) ≅ τ_r(anchor', amap'.(v)) exactly.
     GG's map sends both copies of a node of G to it ([Lift.unfold_loop]),
     so composed with G's map it is that map twice over. *)
  let anchor', amap' =
    match side with
    | `G ->
      let n = Array.length state.amap in
      let amap = Array.make (2 * n) 0 in
      Ld_models.Darts.blit_ints state.amap 0 amap 0 n;
      Ld_models.Darts.blit_ints state.amap 0 amap n n;
      (state.anchor, amap)
    | `H -> (p.hr, cov_hh.Lift.map)
  in
  let views_checked =
    check_views
    && Obs.with_span "core.lb.views" (fun () ->
           Obs.Counter.incr c_incremental;
           Refinement.equivalent_radius anchor' amap'.(g_star) gh next.h
             ~radius:level)
  in
  if check_views && not views_checked then
    failwith "P1 violated: radius-level views are not isomorphic (engine bug)";
  ( {
      i = level;
      pair = next;
      choice = Unfold { side; g_star; loop_target };
      y_g = y_target;
      y_h = y_gh;
      anchor = anchor';
      amap = amap';
    },
    views_checked )

(* The induction of §4: [on_level] sees every level as it is certified,
   [on_probe] every probe before its feasibility check. Returns the
   failure witness if the algorithm is refuted. *)
let drive ~on_probe ~on_level ~check_views ~delta algo =
  if delta < 2 then invalid_arg "Lower_bound.run: delta must be >= 2";
  Obs.with_span
    ~args:[ ("delta", string_of_int delta); ("algorithm", algo.name) ]
    "core.lb.run"
  @@ fun () ->
  let certified = ref 0 in
  let emit state ~views_checked =
    incr certified;
    on_level state ~views_checked
  in
  let refuted =
    try
      let state = ref (base_case ~on_probe ~delta algo) in
      emit !state ~views_checked:check_views;
      while !state.i < delta - 2 do
        let next, views_checked =
          step ~on_probe ~delta ~algo ~check_views !state
        in
        state := next;
        emit next ~views_checked
      done;
      None
    with Refutation failure -> Some failure
  in
  Obs.Counter.add c_certificates !certified;
  if Option.is_some refuted then Obs.Counter.incr c_refutations;
  refuted

let max_level = function
  | Certified certs | Refuted (certs, _) ->
    List.fold_left (fun acc c -> Stdlib.max acc c.level) (-1) certs

(* ---- The trail ----

   Every graph of the construction is a function of a few ints: the
   base case's removed and changed loops, then per level the side, g★
   and loop the propagation walk picked ([step], [advance]). A trail
   holds exactly these choices, and [replay] rebuilds the graphs from
   them with [Lift.unfold_loop] and [mix] alone.

   [shapes] reads a trail without building a graph. Per level it
   derives the sizes of G and H and the certificate's scalars; a loop's
   node and colour are traced back through the levels that copied it
   ([loop_at]). Any trail it accepts replays: every g★ and loop exists,
   and each named loop sits at g★ in copy A of the unfolded side, as the
   propagation walk leaves it. *)

type shape = {
  ng : int;
  lg : int; (* nodes and loops of G *)
  nh : int;
  lh : int; (* and of H *)
  sg : int;
  sh : int;
  sc : int;
  se : int;
  sf : int; (* the pair's g, h, c, e, f *)
}

(* Largest Δ a trail may name. Level graphs have at most 2^(Δ-2) nodes,
   so every count stays far from overflow; THM1 runs to Δ = 20. *)
let max_trail_delta = 32

(* Node and colour of loop [k] of G_i ([`G]) or H_i ([`H]). Unfolding X
   at loop x keeps X - x's loops in copy A, then again shifted by |X| in
   copy B; the mixture keeps G - e's loops, then H - f's shifted by
   |G|. *)
let rec loop_at shapes trail i which k =
  let skip x k = if k < x then k else k + 1 in
  match (trail.(i), which) with
  | Base _, `G -> (0, k + 1)
  | Base { removed; _ }, `H -> (0, skip removed k + 1)
  | Unfold { side; _ }, `G ->
    let p = shapes.(i - 1) in
    let n, l, x =
      match side with `G -> (p.ng, p.lg, p.se) | `H -> (p.nh, p.lh, p.sf)
    in
    let k, shift = if k < l - 1 then (k, 0) else (k - (l - 1), n) in
    let node, colour = loop_at shapes trail (i - 1) side (skip x k) in
    (node + shift, colour)
  | Unfold _, `H ->
    let p = shapes.(i - 1) in
    if k < p.lg - 1 then loop_at shapes trail (i - 1) `G (skip p.se k)
    else
      let node, colour =
        loop_at shapes trail (i - 1) `H (skip p.sf (k - (p.lg - 1)))
      in
      (node + p.ng, colour)

let trail_delta trail =
  match trail with
  | [||] -> invalid_arg "Lower_bound: empty trail"
  | _ -> (
    match trail.(0) with
    | Base { delta; _ } -> delta
    | Unfold _ -> invalid_arg "Lower_bound: trail level 0 is not a base step")

let shapes trail =
  let bad fmt = Printf.ksprintf invalid_arg ("Lower_bound: trail " ^^ fmt) in
  let delta = trail_delta trail in
  let len = Array.length trail in
  if delta < 2 || delta > max_trail_delta then
    bad "names delta %d outside [2, %d]" delta max_trail_delta;
  if len > delta - 1 then bad "has %d levels for delta %d" len delta;
  let shapes = Array.make len { ng = 0; lg = 0; nh = 0; lh = 0; sg = 0; sh = 0; sc = 0; se = 0; sf = 0 } in
  Array.iteri
    (fun i choice ->
      match choice with
      | Base { removed; changed; _ } ->
        if i > 0 then bad "has a base step at level %d" i;
        if removed < 0 || removed >= delta then
          bad "removes loop %d of %d" removed delta;
        if changed < 0 || changed >= delta || changed = removed then
          bad "changes loop %d (removed %d of %d)" changed removed delta;
        shapes.(0) <-
          {
            ng = 1;
            lg = delta;
            nh = 1;
            lh = delta - 1;
            sg = 0;
            sh = 0;
            sc = changed + 1;
            se = changed;
            sf = (if changed < removed then changed else changed - 1);
          }
      | Unfold { side; g_star; loop_target } ->
        let p = shapes.(i - 1) in
        let n, l =
          match side with
          | `G -> (2 * p.ng, 2 * (p.lg - 1))
          | `H -> (2 * p.nh, 2 * (p.lh - 1))
        in
        if g_star < 0 || g_star >= n then
          bad "names g* = %d at level %d, which has %d nodes" g_star i n;
        (* The walk ends in copy A, whose loops come first; its twin in
           the mixture is then the loop [advance] names. *)
        if loop_target < 0 || loop_target >= l / 2 then
          bad "names loop %d at level %d, outside the %d loops of copy A"
            loop_target i (l / 2);
        let node, colour = loop_at shapes trail i `G loop_target in
        if node <> g_star then
          bad "names loop %d at level %d, which is not at g* = %d" loop_target i
            g_star;
        let sh, sf =
          match side with
          | `G -> (g_star, loop_target)
          | `H -> (p.ng + g_star, p.lg - 1 + loop_target)
        in
        shapes.(i) <-
          {
            ng = n;
            lg = l;
            nh = p.ng + p.nh;
            lh = p.lg - 1 + (p.lh - 1);
            sg = g_star;
            sh;
            sc = colour;
            se = loop_target;
            sf;
          })
    trail;
  shapes

(* ---- Replay ----

   A chain replays one trail: level i's graphs are built on first use
   from level i-1's pair and kept. The first forcer takes the chain's
   mutex and builds every missing level up to the one it wants; later
   forcers read the published level through an [Atomic] without
   locking. So two domains forcing one chain build each level once and
   share it. ([Lazy.force] would raise [Lazy.Undefined] in the second
   domain under OCaml 5.1.) *)

(* A level's pair and its probe graphs (level 0: G_0, H_0; level i: GG,
   HH, GH). *)
type replayed = { rpair : pair; probe_graphs : Ec.t array }

type chain = {
  chain_trail : step array;
  lock : Mutex.t;
  built : replayed option Atomic.t array;
}

let chain trail =
  {
    chain_trail = trail;
    lock = Mutex.create ();
    built = Array.init (Array.length trail) (fun _ -> Atomic.make None);
  }

let replay_level ch i =
  Obs.Counter.incr c_replays;
  Obs.with_span ~args:[ ("level", string_of_int i) ] "core.lb.replay"
  @@ fun () ->
  match ch.chain_trail.(i) with
  | Base { delta; removed; changed } ->
    let g0 = base_graph delta in
    let h0 = Ec.remove_loop g0 removed in
    { rpair = base_pair g0 h0 ~removed ~changed; probe_graphs = [| g0; h0 |] }
  | Unfold { side; g_star; loop_target } ->
    let p =
      match Atomic.get ch.built.(i - 1) with
      | Some r -> r.rpair
      | None -> assert false (* built in level order *)
    in
    let cov_gg, cov_hh, gh = unfold_and_mix p in
    let gg = cov_gg.Lift.total and hh = cov_hh.Lift.total in
    {
      rpair = advance p ~gg ~hh ~gh ~side ~g_star ~loop_target;
      probe_graphs = [| gg; hh; gh |];
    }

let replay ch i =
  match Atomic.get ch.built.(i) with
  | Some r -> r
  | None -> (
    Mutex.protect ch.lock (fun () ->
        for k = 0 to i do
          if Option.is_none (Atomic.get ch.built.(k)) then
            Atomic.set ch.built.(k) (Some (replay_level ch k))
        done);
    match Atomic.get ch.built.(i) with Some r -> r | None -> assert false)

let probe_count level = if level = 0 then 2 else 3

(* Level [i]'s certificate over a chain; its scalars come from the
   trail's shapes, its graphs from the chain on first use. *)
let certificate_in ch shapes i ~g_weight ~h_weight ~views_checked =
  let s = shapes.(i) in
  {
    level = i;
    trail = Array.sub ch.chain_trail 0 (i + 1);
    g_graph = (fun () -> (replay ch i).rpair.gr);
    h_graph = (fun () -> (replay ch i).rpair.hr);
    g_node = s.sg;
    h_node = s.sh;
    colour = s.sc;
    g_loop = s.se;
    h_loop = s.sf;
    g_weight;
    h_weight;
    views_checked;
  }

let probe_in ch i k prefix_round =
  {
    probe_level = i;
    prefix_round;
    probe_graph = (fun () -> (replay ch i).probe_graphs.(k));
  }

let level_of_trail trail ~g_weight ~h_weight ~views_checked ~prefix_rounds =
  let shapes = shapes trail in
  let i = Array.length trail - 1 in
  if List.length prefix_rounds <> probe_count i then
    invalid_arg
      (Printf.sprintf "Lower_bound.level_of_trail: %d thresholds at level %d"
         (List.length prefix_rounds) i);
  let ch = chain trail in
  ( certificate_in ch shapes i ~g_weight ~h_weight ~views_checked,
    List.mapi (probe_in ch i) prefix_rounds )

(* Memoised frontier scans. Every level of the construction is
   determined by the algorithm's outputs on the probe graphs, so two
   algorithms that agree on every probe walk through {e the same}
   construction and reach the same outcome. The cache holds the base
   algorithm's trail, its per-probe feasibility thresholds and its
   outcome; [cached_run] replays the probes in order:

   - a feasibility failure at some probe is exactly where [run] would
     have stopped, so the cached certificates below that level are
     returned with a fresh failure witness;
   - an output that is feasible but differs from the base output means
     the replay is invalid — we fall back to a full [run].

   The point: a truncated-but-feasible output on a loopy graph is fully
   saturated (Lemma 2 forces it), and our base algorithms are monotone
   accumulators, so feasible truncations equal the full output — the
   fallback never fires for the benchmark's truncation scans, and every
   scan shares one construction instead of rebuilding Θ(Δ) of them. *)
type cache = {
  cache_delta : int;
  cache_check_views : bool;
  cache_algo_name : string;
  cache_base : algorithm option;
      (* Reruns on replayed probe graphs where the base outputs are
         needed; [None] for a reassembled cache of an unknown algorithm. *)
  cache_outcome : outcome;
  cache_probes : probe list;
  cache_prefix_rounds : int array;
      (* [prefix_round] of every probe, in probe order. Fuels
         {!truncated_verdict}. *)
}

(* Largest colour with positive weight anywhere in the output. Every
   positive item sits at some node, so this equals the max over nodes of
   their largest positive colour — the exact threshold below which a
   colour restriction leaves some node unsaturated. *)
let prefix_round graph y =
  let edge_colour = Ec.edge_colour graph and edge_w = Fm.edge_weights y in
  let loop_colour = Ec.loop_colour graph and loop_w = Fm.loop_weights y in
  let r = ref 0 in
  for j = 0 to Array.length edge_w - 1 do
    if edge_colour.(j) > !r && Q.sign edge_w.(j) > 0 then r := edge_colour.(j)
  done;
  for j = 0 to Array.length loop_w - 1 do
    if loop_colour.(j) > !r && Q.sign loop_w.(j) > 0 then r := loop_colour.(j)
  done;
  !r

let make_cache ~delta ~algo_name ~base ~check_views ~probes ~outcome =
  {
    cache_delta = delta;
    cache_check_views = check_views;
    cache_algo_name = algo_name;
    cache_base = base;
    cache_outcome = outcome;
    cache_probes = probes;
    cache_prefix_rounds = Array.of_list (List.map (fun p -> p.prefix_round) probes);
  }

(* One certified level as the cold build records it. *)
type recorded = {
  choice : step;
  g_weight : Q.t;
  h_weight : Q.t;
  checked : bool;
  thresholds : int list;
}

(* The cold build keeps the current level state and the trail; each
   level's probe graphs are dropped once they pass, and the cache's
   graphs are replayed from the trail like a reloaded one's. Only a
   refuted base leaves graphs behind: its failing level, which no trail
   entry describes. *)
let build_cache ?(check_views = true) ~delta algo =
  Obs.with_span ~args:[ ("delta", string_of_int delta) ] "core.lb.build_cache"
  @@ fun () ->
  let levels = ref [] and pending = ref [] in
  let on_probe graph y = pending := (graph, prefix_round graph y) :: !pending in
  let on_level (s : level_state) ~views_checked =
    levels :=
      {
        choice = s.choice;
        g_weight = Fm.loop_weight s.y_g s.pair.e;
        h_weight = Fm.loop_weight s.y_h s.pair.f;
        checked = views_checked;
        thresholds = List.rev_map snd !pending;
      }
      :: !levels;
    pending := []
  in
  let refuted = drive ~on_probe ~on_level ~check_views ~delta algo in
  let levels = List.rev !levels in
  let trail = Array.of_list (List.map (fun l -> l.choice) levels) in
  let ch = chain trail in
  let shapes = if levels = [] then [||] else shapes trail in
  let certs =
    List.mapi
      (fun i l ->
        certificate_in ch shapes i ~g_weight:l.g_weight ~h_weight:l.h_weight
          ~views_checked:l.checked)
      levels
  in
  let probes =
    List.concat
      (List.mapi (fun i l -> List.mapi (probe_in ch i) l.thresholds) levels)
  in
  let outcome, failed =
    match refuted with
    | None -> (Certified certs, [])
    | Some failure ->
      (* The failing probe is the last one recorded: its output is
         infeasible at every truncation. *)
      let failed =
        match !pending with
        | [] -> []
        | (graph, _) :: passed -> (graph, max_int) :: passed
      in
      ( Refuted (certs, failure),
        List.rev_map
          (fun (graph, prefix_round) ->
            { probe_level = Array.length trail; prefix_round; probe_graph = given graph })
          failed )
  in
  make_cache ~delta ~algo_name:algo.name ~base:(Some algo) ~check_views
    ~probes:(probes @ failed) ~outcome

let cache_outcome cache = cache.cache_outcome

(* The adversary's one collector is the cold cache: [run] is its
   outcome, with graphs replayed from the trail on first use. *)
let run ?check_views ~delta algo =
  cache_outcome (build_cache ?check_views ~delta algo)

let cache_delta cache = cache.cache_delta
let cache_algo_name cache = cache.cache_algo_name
let cache_check_views cache = cache.cache_check_views
let cache_probes cache = cache.cache_probes

let step_equal a b =
  match (a, b) with
  | Base a, Base b ->
    a.delta = b.delta && a.removed = b.removed && a.changed = b.changed
  | Unfold a, Unfold b ->
    (match (a.side, b.side) with
    | `G, `G | `H, `H -> true
    | `G, `H | `H, `G -> false)
    && a.g_star = b.g_star && a.loop_target = b.loop_target
  | Base _, Unfold _ | Unfold _, Base _ -> false

(* Rebuild a cache from stored parts (the persistent store's warm
   path): the thresholds are read off the probes, and every certificate
   and probe is rewired onto one chain over the deepest certificate's
   trail, so forcing the whole cache replays each level once. *)
let assemble_cache ~delta ~algo_name ~check_views ~probes ~outcome =
  let bad msg = invalid_arg ("Lower_bound.assemble_cache: " ^ msg) in
  let certs = match outcome with Certified certs | Refuted (certs, _) -> certs in
  let trail =
    match List.rev certs with [] -> [||] | top :: _ -> top.trail
  in
  let depth = Array.length trail in
  List.iteri
    (fun i c ->
      if c.level <> i then bad "certificate levels are not 0, 1, ...";
      if
        Array.length c.trail <> i + 1
        || not (Array.for_all2 step_equal c.trail (Array.sub trail 0 (i + 1)))
      then bad "certificate trails are not prefixes of one trail")
    certs;
  let shapes = if depth = 0 then [||] else shapes trail in
  if depth > 0 && trail_delta trail <> delta then bad "trail names another delta";
  let ch = chain trail in
  let certs =
    List.map
      (fun c ->
        certificate_in ch shapes c.level ~g_weight:c.g_weight
          ~h_weight:c.h_weight ~views_checked:c.views_checked)
      certs
  in
  (* The k-th probe of a trail level is that level's k-th probe graph;
     probes past the trail (a refuted base's failing level) keep
     theirs. *)
  let probes =
    let rec rewire level k = function
      | [] -> []
      | p :: rest ->
        let k = if p.probe_level = level then k + 1 else 0 in
        let p =
          if p.probe_level >= depth then p
          else if k >= probe_count p.probe_level then bad "too many probes at a level"
          else probe_in ch p.probe_level k p.prefix_round
        in
        p :: rewire p.probe_level k rest
    in
    rewire (-1) 0 probes
  in
  let outcome =
    match outcome with
    | Certified _ -> Certified certs
    | Refuted (_, failure) -> Refuted (certs, failure)
  in
  let base =
    List.find_opt
      (fun (a : algorithm) -> String.equal a.name algo_name)
      Ld_matching.Packing.[ greedy_algorithm; proposal_algorithm ]
  in
  make_cache ~delta ~algo_name ~base ~check_views ~probes ~outcome

exception Diverged

let cached_run cache algo =
  let replay () =
    Obs.with_span "core.lb.memo_replay" @@ fun () ->
    let base =
      match cache.cache_base with Some base -> base | None -> raise Diverged
    in
    List.iter
      (fun p ->
        let graph = force p.probe_graph in
        let y = algo.run graph in
        check_feasible ~level:p.probe_level graph y;
        if not (Fm.equal y (base.run graph)) then raise Diverged)
      cache.cache_probes;
    cache.cache_outcome
  in
  match replay () with
  | outcome ->
    Obs.Counter.incr c_memo_hits;
    outcome
  | exception Refutation failure ->
    Obs.Counter.incr c_memo_refuted;
    let certs =
      match cache.cache_outcome with
      | Certified certs | Refuted (certs, _) -> certs
    in
    let prefix = List.filter (fun c -> c.level < failure.fail_level) certs in
    Refuted (prefix, failure)
  | exception Diverged ->
    Obs.Counter.incr c_memo_diverged;
    run ~check_views:cache.cache_check_views ~delta:cache.cache_delta algo

let truncated_verdict cache ~rounds =
  if
    cache.cache_algo_name <> Ld_matching.Packing.greedy_algorithm.name
  then
    invalid_arg
      "Lower_bound.truncated_verdict: cache was not built against \
       greedy-by-colour (truncations of other bases are not colour-prefix \
       restrictions)";
  if rounds < 0 then
    invalid_arg "Lower_bound.truncated_verdict: negative rounds";
  Obs.with_span "core.lb.frontier_verdict" @@ fun () ->
  let fails =
    Array.exists (fun threshold -> threshold > rounds) cache.cache_prefix_rounds
  in
  if fails then begin
    Obs.Counter.incr c_memo_refuted;
    `Refuted
  end
  else begin
    Obs.Counter.incr c_memo_hits;
    match cache.cache_outcome with
    | Certified _ -> `Certified
    | Refuted _ -> `Refuted
  end

let pp_certificate fmt c =
  Format.fprintf fmt
    "@[<v>level %d: |G_i| = %d nodes, |H_i| = %d nodes;@ distinguished nodes \
     g=%d h=%d; colour-%d loops carry weights %a vs %a;@ radius-%d views %s@]"
    c.level (Ec.n (force c.g_graph)) (Ec.n (force c.h_graph)) c.g_node c.h_node
    c.colour Q.pp c.g_weight Q.pp c.h_weight c.level
    (if c.views_checked then "verified isomorphic (colour refinement)"
     else "not checked")

let pp_failure fmt f =
  Format.fprintf fmt
    "@[<v>refuted at level %d: on a loopy EC-graph with %d nodes the output \
     has %d violation(s);@ note: %s@]"
    f.fail_level (Ec.n f.fail_graph)
    (List.length f.fail_violations)
    f.fail_note
