module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Coin = Ld_runtime.Packed.Coin

(* Davies–Peck-style degree-class decomposition schedule over the
   Israeli–Itai propose/respond dynamics, for approximate maximum
   matching / 2-approximate vertex cover at mega scale.

   The round schedule splits nodes into degree classes: in phase [j]
   (lasting [iters_per_class] propose/respond iterations) only nodes
   whose *live* degree lies in (Δ/2^{j+1}, Δ/2^j] draw proposals —
   the densest residual nodes are matched off first, halving the
   relevant degree scale each phase, which is the decomposition
   strategy behind Davies–Peck-style matching/cover rounds. Everyone
   always responds, so progress is never blocked. After the [log Δ]
   classes an unrestricted Israeli–Itai cleanup runs until the
   matching is maximal; matched endpoints then form a 2-approximate
   vertex cover.

   Eligibility is a function of purely local state (live-port count
   and the iteration counter), and the {!Packed.Coin} word lives in
   the slice, so [Packed.Port.reference_run] is an exact oracle:
   identical states and rounds at any [LD_DOMAINS].

   State slice (7 words): the 6 of [Packed_ii] (coin, live mask,
   matched, phase, proposal, accept) plus the iteration counter. *)

type schedule = { delta : int; iters_per_class : int }

(* Number of degree classes: bit length of delta, so the classes
   (Δ/2, Δ], (Δ/4, Δ/2], ... cover 1..Δ. *)
let classes delta =
  let c = ref 0 in
  let d = ref delta in
  while !d > 0 do
    incr c;
    d := !d lsr 1
  done;
  !c

let sw = 7
let off_coin = 0
let off_live = 1
let off_matched = 2
let off_phase = 3
let off_proposal = 4
let off_accept = 5
let off_iter = 6
let bit_matched = 1
let bit_propose = 2
let bit_accept = 4

type result = { mate : int array; rounds : int }

let nth_set_bit mask k =
  let m = ref mask and left = ref k and p = ref 0 in
  while !left > 0 || !m land 1 = 0 do
    if !m land 1 = 1 then decr left;
    m := !m lsr 1;
    incr p
  done;
  !p

let popcount x =
  let c = ref 0 in
  let y = ref x in
  while !y <> 0 do
    y := !y land (!y - 1);
    incr c
  done;
  !c

let eligible sched ~iter ~live_count =
  let j = iter / sched.iters_per_class in
  if j >= classes sched.delta then true
  else
    live_count > sched.delta lsr (j + 1)
    && live_count <= sched.delta lsr j

(* Transition core over a 7-word state array, run by the machine on a
   scratch copy of the node's slice; see Packed_ii for the
   propose/respond semantics, which are unchanged — only the proposal
   draw is gated by [eligible]. *)

let draw_proposal sched state =
  let live = state.(off_live) in
  if live = 0 then state.(off_proposal) <- -1
  else if
    not (eligible sched ~iter:state.(off_iter) ~live_count:(popcount live))
  then state.(off_proposal) <- -1
  else begin
    let c = Coin.next state.(off_coin) in
    state.(off_coin) <- c;
    if Coin.bool c then begin
      let c = Coin.next state.(off_coin) in
      state.(off_coin) <- c;
      let k = Coin.int c (popcount live) in
      state.(off_proposal) <- nth_set_bit live k
    end
    else state.(off_proposal) <- -1
  end

let init_state sched state ~seed ~node ~degree =
  if degree > 62 then invalid_arg "Davies_peck: degree > 62";
  state.(off_coin) <- Coin.seed ~seed ~node;
  state.(off_live) <- (if degree = 0 then 0 else (1 lsl degree) - 1);
  state.(off_matched) <- -1;
  state.(off_phase) <- 0;
  state.(off_proposal) <- -1;
  state.(off_accept) <- -1;
  state.(off_iter) <- 0;
  draw_proposal sched state

let msg_of state ~port =
  (if state.(off_matched) >= 0 then bit_matched else 0)
  lor
  (if state.(off_phase) = 0 && state.(off_proposal) = port then bit_propose
   else 0)
  lor
  (if state.(off_phase) = 1 && state.(off_accept) = port then bit_accept
   else 0)

let step_state sched state ~degree ~msg =
  let live = ref state.(off_live) in
  for p = 0 to degree - 1 do
    if !live land (1 lsl p) <> 0 && msg p land bit_matched <> 0 then
      live := !live land lnot (1 lsl p)
  done;
  if state.(off_phase) = 0 then begin
    let accept = ref (-1) in
    if state.(off_matched) < 0 && state.(off_proposal) < 0 then begin
      let p = ref 0 in
      while !accept < 0 && !p < degree do
        if
          !live land (1 lsl !p) <> 0
          && msg !p land bit_propose <> 0
          && msg !p land bit_matched = 0
        then accept := !p;
        incr p
      done
    end;
    state.(off_live) <- !live;
    state.(off_phase) <- 1;
    state.(off_accept) <- !accept
  end
  else begin
    let matched =
      if state.(off_matched) >= 0 then state.(off_matched)
      else if state.(off_accept) >= 0 then state.(off_accept)
      else if
        state.(off_proposal) >= 0
        && msg state.(off_proposal) land bit_accept <> 0
      then state.(off_proposal)
      else -1
    in
    if matched >= 0 then live := 0;
    state.(off_live) <- !live;
    state.(off_matched) <- matched;
    state.(off_phase) <- 0;
    state.(off_accept) <- -1;
    state.(off_iter) <- state.(off_iter) + 1;
    draw_proposal sched state
  end

(* ---------- packed machine ---------- *)

let machine ~seed ~sched : Packed.Port.machine =
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let scratch = Array.make sw 0 in
        init_state sched scratch ~seed ~node
          ~degree:(g.Csr.row.(node + 1) - g.Csr.row.(node));
        Array.blit scratch 0 st (node * sw) sw);
    send =
      (fun ~g ~st ~out ~node ->
        let b = node * sw in
        let scratch = Array.sub st b sw in
        let lo = g.Csr.row.(node) and hi = g.Csr.row.(node + 1) in
        for d = lo to hi - 1 do
          out.(d) <- msg_of scratch ~port:(d - lo)
        done);
    recv =
      (fun ~g ~back ~st ~out ~node ->
        let b = node * sw in
        let scratch = Array.sub st b sw in
        let lo = g.Csr.row.(node) in
        let degree = g.Csr.row.(node + 1) - lo in
        let msg p =
          let d = lo + p in
          out.(g.Csr.row.(g.Csr.endpoint.(d)) + back.(d))
        in
        step_state sched scratch ~degree ~msg;
        Array.blit scratch 0 st b sw);
    halted =
      (fun ~st ~node ->
        let b = node * sw in
        st.(b + off_matched) >= 0
        || (st.(b + off_live) = 0 && st.(b + off_phase) = 0));
  }

let default_schedule g =
  { delta = Stdlib.max 1 (Csr.max_degree g); iters_per_class = 2 }

let run ?par_threshold ?domains ?sched ~seed ~max_rounds g =
  let sched = match sched with Some s -> s | None -> default_schedule g in
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains (machine ~seed ~sched)
      ~max_rounds g
  in
  if not all_halted then
    failwith
      (Printf.sprintf
         "Davies_peck.run: not all nodes halted within %d rounds" max_rounds);
  let n = g.Csr.n in
  let mate =
    Array.init n (fun v ->
        let p = st.((v * sw) + off_matched) in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith "Davies_peck: asymmetric matching (protocol bug)")
    mate;
  ({ mate; rounds = stats.Packed.rounds }, stats)

(* ---------- vertex cover view ---------- *)

let cover r = Array.map (fun w -> w >= 0) r.mate

let is_vertex_cover g r =
  let ok = ref true in
  let { Csr.row; endpoint; _ } = g in
  for v = 0 to g.Csr.n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      if r.mate.(v) < 0 && r.mate.(endpoint.(d)) < 0 then ok := false
    done
  done;
  !ok
