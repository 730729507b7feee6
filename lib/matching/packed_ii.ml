module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Coin = Ld_runtime.Packed.Coin

(* Packed Israeli–Itai-style randomized maximal matching on the
   {!Packed.Port} executor — the flagship mega-scale workload.

   Nodes draw from the one-word {!Packed.Coin} stream seeded from
   [(seed, node)]. The coin word is part of the state slice, so
   [Packed.Port.reference_run] is an exact oracle.

   State slice (6 words at base [b = node * sw]): coin, live-port
   bitmask (degree <= 62), matched port (-1), phase (0 = propose,
   1 = respond), proposal port (-1), accept port (-1). Message
   (1 word): matched / propose / accept bits. Every transition reads
   and writes the slice in place and each received message is one
   load, [out.(mirror.(d))]: a round allocates nothing.

   The core below takes the slice width [sw] as a parameter so that
   [Davies_peck] runs the same dynamics over a wider slice (its
   iteration counter sits after these 6 words), and [Israeli_itai]
   runs it with per-node [Random.State] coins through {!propose}. *)

let words = 6
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

let popcount x =
  let c = ref 0 in
  let y = ref x in
  while !y <> 0 do
    y := !y land (!y - 1);
    incr c
  done;
  !c

let live st b = st.(b + off_live)

let propose st b k = st.(b + off_proposal) <- nth_set_bit st.(b + off_live) k

let draw st b ~eligible =
  (* Draw order: a bool draw only if any live port remains (and the
     caller's gate allows a proposal), then an int draw only for
     proposers. *)
  let live = st.(b + off_live) in
  if live = 0 || not eligible then st.(b + off_proposal) <- -1
  else begin
    let c = Coin.next st.(b + off_coin) in
    st.(b + off_coin) <- c;
    if Coin.bool c then begin
      let c = Coin.next c in
      st.(b + off_coin) <- c;
      propose st b (Coin.int c (popcount live))
    end
    else st.(b + off_proposal) <- -1
  end

let init ~who st b ~seed ~node ~degree =
  if degree > 62 then invalid_arg (who ^ ": degree > 62");
  st.(b + off_coin) <- Coin.seed ~seed ~node;
  st.(b + off_live) <- (if degree = 0 then 0 else (1 lsl degree) - 1);
  st.(b + off_matched) <- -1;
  st.(b + off_phase) <- 0;
  st.(b + off_proposal) <- -1;
  st.(b + off_accept) <- -1

let send ~sw ~g ~st ~out ~node =
  let b = node * sw in
  let base = if st.(b + off_matched) >= 0 then bit_matched else 0 in
  let propose = st.(b + off_phase) = 0 in
  let target = st.(b + if propose then off_proposal else off_accept) in
  let bit = if propose then bit_propose else bit_accept in
  let lo = g.Csr.row.(node) in
  for d = lo to g.Csr.row.(node + 1) - 1 do
    out.(d) <- (if d - lo = target then base lor bit else base)
  done

let step ~g ~mirror ~out st b ~node =
  let lo = g.Csr.row.(node) in
  let degree = g.Csr.row.(node + 1) - lo in
  let live = ref st.(b + off_live) in
  for p = 0 to degree - 1 do
    if !live land (1 lsl p) <> 0 && out.(mirror.(lo + p)) land bit_matched <> 0
    then live := !live land lnot (1 lsl p)
  done;
  if st.(b + off_phase) = 0 then begin
    (* Propose phase: responders accept the lowest live proposal from
       a still-unmatched proposer. *)
    let accept = ref (-1) in
    if st.(b + off_matched) < 0 && st.(b + off_proposal) < 0 then begin
      let p = ref 0 in
      while !accept < 0 && !p < degree do
        let msg = out.(mirror.(lo + !p)) in
        if
          !live land (1 lsl !p) <> 0
          && msg land bit_propose <> 0
          && msg land bit_matched = 0
        then accept := !p;
        incr p
      done
    end;
    st.(b + off_live) <- !live;
    st.(b + off_phase) <- 1;
    st.(b + off_accept) <- !accept;
    false
  end
  else begin
    let proposal = st.(b + off_proposal) in
    let matched =
      if st.(b + off_matched) >= 0 then st.(b + off_matched)
      else if st.(b + off_accept) >= 0 then st.(b + off_accept)
      else if proposal >= 0 && out.(mirror.(lo + proposal)) land bit_accept <> 0
      then proposal
      else -1
    in
    if matched >= 0 then live := 0;
    st.(b + off_live) <- !live;
    st.(b + off_matched) <- matched;
    st.(b + off_phase) <- 0;
    st.(b + off_accept) <- -1;
    true
  end

let halted ~sw ~st ~node =
  let b = node * sw in
  st.(b + off_matched) >= 0
  || (st.(b + off_live) = 0 && st.(b + off_phase) = 0)

let mates ~who ~sw g st =
  let mate =
    Array.init g.Csr.n (fun v ->
        let p = st.((v * sw) + off_matched) in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith (who ^ ": asymmetric matching (protocol bug)"))
    mate;
  mate

(* ---------- packed machine ---------- *)

let machine ~seed : Packed.Port.machine =
  let sw = words in
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let b = node * sw in
        init ~who:"Packed_ii" st b ~seed ~node
          ~degree:(g.Csr.row.(node + 1) - g.Csr.row.(node));
        draw st b ~eligible:true);
    send = send ~sw;
    recv =
      (fun ~g ~mirror ~st ~out ~node ->
        let b = node * sw in
        if step ~g ~mirror ~out st b ~node then draw st b ~eligible:true);
    halted = halted ~sw;
  }

let run ?par_threshold ?domains ~seed ~max_rounds g =
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains (machine ~seed) ~max_rounds
      g
  in
  if not all_halted then
    failwith
      (Printf.sprintf "Packed_ii.run: not all nodes halted within %d rounds"
         max_rounds);
  ( { mate = mates ~who:"Packed_ii" ~sw:words g st;
      rounds = stats.Packed.rounds },
    stats )

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
