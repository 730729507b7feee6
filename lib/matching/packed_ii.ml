module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Coin = Ld_runtime.Packed.Coin

(* Packed Israeli–Itai-style randomized maximal matching on the
   {!Packed.Port} executor — the flagship mega-scale workload.

   The protocol is exactly [Israeli_itai]'s propose/respond dynamics;
   the one necessary difference is the coin source: a [Random.State]
   cannot live in an int slice, so nodes draw from the one-word
   {!Packed.Coin} stream seeded from [(seed, node)]. The coin word is
   part of the state slice, so [Packed.Port.reference_run] is an exact
   oracle, and the classic [Israeli_itai] stays untouched as the
   baseline.

   State slice (6 words): coin, live-port bitmask (degree <= 62),
   matched port (-1), phase (0 = propose, 1 = respond), proposal port
   (-1), accept port (-1). Message (1 word): matched / propose /
   accept bits. *)

let sw = 6
let off_coin = 0
let off_live = 1
let off_matched = 2
let off_phase = 3
let off_proposal = 4
let off_accept = 5
let bit_matched = 1
let bit_propose = 2
let bit_accept = 4

type result = { mate : int array; rounds : int }

(* k-th set bit (0-based) of a nonempty mask — the packed analogue of
   [List.nth live k] on the ascending live-port list. *)
let nth_set_bit mask k =
  let m = ref mask and left = ref k and p = ref 0 in
  while !left > 0 || !m land 1 = 0 do
    if !m land 1 = 1 then decr left;
    m := !m lsr 1;
    incr p
  done;
  !p

(* Transition core over a plain 6-word state array; the machine below
   runs it on a scratch copy of the node's slice. *)

let popcount_live x =
  let c = ref 0 in
  let y = ref x in
  while !y <> 0 do
    y := !y land (!y - 1);
    incr c
  done;
  !c

let draw_proposal state =
  (* Draw order: a bool draw only if any live port remains, then an
     int draw only for proposers. *)
  let live = state.(off_live) in
  if live = 0 then state.(off_proposal) <- -1
  else begin
    let c = Coin.next state.(off_coin) in
    state.(off_coin) <- c;
    if Coin.bool c then begin
      let c = Coin.next state.(off_coin) in
      state.(off_coin) <- c;
      let k = Coin.int c (popcount_live live) in
      state.(off_proposal) <- nth_set_bit live k
    end
    else state.(off_proposal) <- -1
  end

let init_state state ~seed ~node ~degree =
  if degree > 62 then invalid_arg "Packed_ii: degree > 62";
  state.(off_coin) <- Coin.seed ~seed ~node;
  state.(off_live) <- (if degree = 0 then 0 else (1 lsl degree) - 1);
  state.(off_matched) <- -1;
  state.(off_phase) <- 0;
  state.(off_proposal) <- -1;
  state.(off_accept) <- -1;
  draw_proposal state

let msg_of state ~port =
  (if state.(off_matched) >= 0 then bit_matched else 0)
  lor
  (if state.(off_phase) = 0 && state.(off_proposal) = port then bit_propose
   else 0)
  lor
  (if state.(off_phase) = 1 && state.(off_accept) = port then bit_accept
   else 0)

(* One recv step; [msg port] yields the incoming message word. *)
let step_state state ~degree ~msg =
  let live = ref state.(off_live) in
  for p = 0 to degree - 1 do
    if !live land (1 lsl p) <> 0 && msg p land bit_matched <> 0 then
      live := !live land lnot (1 lsl p)
  done;
  if state.(off_phase) = 0 then begin
    (* Propose phase: responders accept the lowest live proposal from
       a still-unmatched proposer. *)
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
    draw_proposal state
  end

(* ---------- packed machine ---------- *)

(* Each closure copies the node's 6-word slice into a scratch, runs
   the core above and copies back — 12 word moves per transition,
   noise next to the message traffic. *)

let machine ~seed : Packed.Port.machine =
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let scratch = Array.make sw 0 in
        init_state scratch ~seed ~node
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
        step_state scratch ~degree ~msg;
        Array.blit scratch 0 st b sw);
    halted =
      (fun ~st ~node ->
        let b = node * sw in
        st.(b + off_matched) >= 0
        || (st.(b + off_live) = 0 && st.(b + off_phase) = 0));
  }

let extract_result g st (stats : Packed.stats) =
  let n = g.Csr.n in
  let mate =
    Array.init n (fun v ->
        let p = st.((v * sw) + off_matched) in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith "Packed_ii: asymmetric matching (protocol bug)")
    mate;
  ({ mate; rounds = stats.Packed.rounds }, stats)

let run ?par_threshold ?domains ~seed ~max_rounds g =
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains (machine ~seed) ~max_rounds
      g
  in
  if not all_halted then
    failwith
      (Printf.sprintf "Packed_ii.run: not all nodes halted within %d rounds"
         max_rounds);
  extract_result g st stats

let is_maximal g r =
  let ok = ref true in
  Array.iteri
    (fun v w -> if w >= 0 && r.mate.(w) <> v then ok := false)
    r.mate;
  let { Csr.row; endpoint; _ } = g in
  for v = 0 to g.Csr.n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      if r.mate.(v) < 0 && r.mate.(endpoint.(d)) < 0 then ok := false
    done
  done;
  !ok
