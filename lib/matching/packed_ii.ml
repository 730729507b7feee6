module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed

(* Packed Israeli–Itai-style randomized maximal matching on the
   {!Packed.Port} executor — the flagship mega-scale workload.

   Nodes draw from a one-word splitmix coin stream seeded from
   [(seed, node)]. The coin word is part of the state slice, so
   [Packed.Port.reference_run] is an exact oracle.

   State slice (3 words at base [b = node * words]):
     [0] coin
     [1] live-port bitmask (degree <= 62)
     [2] control: matched port + 1 in bits 0..6 (0 = none), the phase
         in bit 7 (0 = propose, 1 = respond), proposal port + 1 in
         bits 8..14, accept port + 1 in bits 16..22, and the count of
         finished propose/respond iterations from bit 24.
   A port is below 62, so port + 1 fits a 7-bit field. Three words
   keep most slices inside one cache line. Message (1 word): matched /
   propose / accept bits. Every transition reads and writes the slice
   in place and each received message is one load, [out.(mirror.(d))]:
   a round allocates nothing.

   [gated] is the one kernel: per-range [init], [recv] and [send] whose
   per-node calls stay in this module. Its gate on the proposal draw is
   Davies–Peck's degree classes; [machine] runs it with the gate that
   always passes. [Israeli_itai] runs the same per-node transitions
   ([init], [step], [send]) with per-node [Random.State] coins through
   {!propose}. *)

let words = 3
let off_coin = 0
let off_live = 1
let off_ctrl = 2

(* Control-word fields. *)
let field = 0x7f
let sh_matched = 0
let bit_phase = 0x80
let sh_proposal = 8
let sh_accept = 16
let sh_iter = 24
let bit_matched = 1
let bit_propose = 2
let bit_accept = 4

(* The port in the field at [sh], or -1. *)
let port ctrl sh = ((ctrl lsr sh) land field) - 1
let set_port ctrl sh p = (ctrl land lnot (field lsl sh)) lor ((p + 1) lsl sh)

type result = { mate : int array; rounds : int }

(* ---------- coin stream ----------

   [Random.State] cannot live in an int slice, so the packed machines
   draw from a splitmix-style hash whose one-word state is part of the
   node's slice. The coins are therefore part of the state array,
   which is what makes [Packed.Port.reference_run] an exact oracle for
   randomised machines rather than a distributional one. The mixer is
   splitmix64's, its constants truncated to 62-bit words: a
   well-scrambled deterministic stream, not the reference output. *)

let coin_mask = (1 lsl 62) - 1

let mix z =
  let z = (z + 0x1E3779B97F4A7C15) land coin_mask in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land coin_mask in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land coin_mask in
  (z lxor (z lsr 31)) land coin_mask

let coin_seed ~seed ~node = mix (mix (seed land coin_mask) + node)
let coin_next s = mix (s + 1)

(* ---------- propose/respond transitions ---------- *)

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
let set_proposal st b p =
  st.(b + off_ctrl) <- set_port st.(b + off_ctrl) sh_proposal p

let propose st b k = set_proposal st b (nth_set_bit st.(b + off_live) k)
let no_proposal st b = set_proposal st b (-1)

let init ~who st b ~seed ~node ~degree =
  if degree > 62 then invalid_arg (who ^ ": degree > 62");
  st.(b + off_coin) <- coin_seed ~seed ~node;
  st.(b + off_live) <- (if degree = 0 then 0 else (1 lsl degree) - 1);
  st.(b + off_ctrl) <- 0

let send ~g ~st ~out ~frozen nodes ~lo ~hi =
  let row = g.Csr.row in
  for k = lo to hi - 1 do
    let v = nodes.(k) in
    let b = v * words in
    let ctrl = st.(b + off_ctrl) in
    let matched = ctrl land field <> 0 in
    let base = if matched then bit_matched else 0 in
    let proposing = ctrl land bit_phase = 0 in
    let target = port ctrl (if proposing then sh_proposal else sh_accept) in
    let d0 = row.(v) in
    for d = d0 to row.(v + 1) - 1 do
      out.(d) <- base
    done;
    if target >= 0 then
      out.(d0 + target) <-
        (base lor if proposing then bit_propose else bit_accept);
    (* Matched, or out of live ports between iterations. *)
    if matched || (proposing && st.(b + off_live) = 0) then
      Bytes.set frozen v '\001'
  done

(* The live ports of [live] whose far end has not announced a match. *)
let unmatched_live ~out ~mirror lo degree live =
  let left = ref live in
  for p = 0 to degree - 1 do
    if live land (1 lsl p) <> 0 && out.(mirror.(lo + p)) land bit_matched <> 0
    then left := !left land lnot (1 lsl p)
  done;
  !left

let step ~row ~mirror ~out st b ~node =
  let lo = row.(node) in
  let degree = row.(node + 1) - lo in
  let live = st.(b + off_live) and ctrl = st.(b + off_ctrl) in
  if ctrl land bit_phase = 0 then begin
    (* Propose phase, one load per live port: drop the ports whose far
       end is matched; a responder (unmatched, no proposal) accepts the
       lowest live proposal from a still-unmatched proposer. *)
    let left = ref live and accept = ref (-1) in
    let responder =
      ctrl land ((field lsl sh_matched) lor (field lsl sh_proposal)) = 0
    in
    for p = 0 to degree - 1 do
      if live land (1 lsl p) <> 0 then begin
        let msg = out.(mirror.(lo + p)) in
        if msg land bit_matched <> 0 then left := !left land lnot (1 lsl p)
        else if responder && !accept < 0 && msg land bit_propose <> 0 then
          accept := p
      end
    done;
    st.(b + off_live) <- !left;
    st.(b + off_ctrl) <- set_port ctrl sh_accept !accept lor bit_phase;
    false
  end
  else begin
    let proposal = port ctrl sh_proposal in
    let matched = port ctrl sh_matched and accept = port ctrl sh_accept in
    let matched =
      if matched >= 0 then matched
      else if accept >= 0 then accept
      else if proposal >= 0 && out.(mirror.(lo + proposal)) land bit_accept <> 0
      then proposal
      else -1
    in
    (* A matched node has no live ports left. *)
    st.(b + off_live) <-
      (if matched >= 0 then 0 else unmatched_live ~out ~mirror lo degree live);
    (* Back to the propose phase with no accept; one more iteration. *)
    st.(b + off_ctrl) <-
      set_port (set_port (ctrl land lnot bit_phase) sh_accept (-1)) sh_matched
        matched
      + (1 lsl sh_iter);
    true
  end

(* ---------- the gated kernel ---------- *)

type gate = { delta : int; iters_per_class : int; classes : int }

let always = { delta = 0; iters_per_class = 1; classes = 0 }

(* Iteration [i] is in degree class [j = i / iters_per_class]; below
   [classes] a node may propose only if its live degree is in
   (Δ/2^{j+1}, Δ/2^j]. *)
let eligible gate ctrl live =
  let j = (ctrl lsr sh_iter) / gate.iters_per_class in
  j >= gate.classes
  ||
  let c = popcount live in
  c > gate.delta lsr (j + 1) && c <= gate.delta lsr j

(* Draw order: a bool draw only if any live port remains and the gate
   passes, then an int draw only for proposers. *)
let draw gate st b =
  let live = st.(b + off_live) in
  if live = 0 || not (eligible gate st.(b + off_ctrl) live) then
    no_proposal st b
  else begin
    let c = coin_next st.(b + off_coin) in
    if c land 1 = 1 then begin
      let c = coin_next c in
      st.(b + off_coin) <- c;
      propose st b ((c lsr 1) mod popcount live)
    end
    else begin
      st.(b + off_coin) <- c;
      no_proposal st b
    end
  end

let gated ~who ~seed gate : Packed.Port.machine =
  {
    state_words = words;
    msg_words = 1;
    init =
      (fun ~g ~st ~lo ~hi ->
        let row = g.Csr.row in
        for v = lo to hi - 1 do
          let b = v * words in
          init ~who st b ~seed ~node:v ~degree:(row.(v + 1) - row.(v));
          draw gate st b
        done);
    send;
    recv =
      (fun ~g ~st ~out nodes ~lo ~hi ->
        let row = g.Csr.row and mirror = g.Csr.mirror in
        for k = lo to hi - 1 do
          let v = nodes.(k) in
          let b = v * words in
          if step ~row ~mirror ~out st b ~node:v then draw gate st b
        done);
  }

let machine ~seed = gated ~who:"Packed_ii" ~seed always

let mates ~who g st =
  let mate =
    Array.init g.Csr.n (fun v ->
        let p = port st.((v * words) + off_ctrl) sh_matched in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith (who ^ ": asymmetric matching (protocol bug)"))
    mate;
  mate

let run_machine ?par_threshold ?domains ~who m ~max_rounds g =
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains m ~max_rounds g
  in
  if not all_halted then
    failwith
      (Printf.sprintf "%s.run: not all nodes halted within %d rounds" who
         max_rounds);
  ({ mate = mates ~who g st; rounds = stats.Packed.rounds }, stats)

let run ?par_threshold ?domains ~seed ~max_rounds g =
  run_machine ?par_threshold ?domains ~who:"Packed_ii" (machine ~seed)
    ~max_rounds g

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
