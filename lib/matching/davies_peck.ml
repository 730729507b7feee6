module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed

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
   matched, phase, proposal, accept) plus the iteration counter. The
   transitions, the message and the halting test are [Packed_ii]'s
   core run over the wider slice; this module adds only the gate on
   the proposal draw and the counter it reads. *)

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

(* The iteration counter sits after the core slice. *)
let off_iter = Packed_ii.words
let sw = off_iter + 1

type result = { mate : int array; rounds : int }

let eligible sched ~iter ~live_count =
  let j = iter / sched.iters_per_class in
  if j >= classes sched.delta then true
  else
    live_count > sched.delta lsr (j + 1)
    && live_count <= sched.delta lsr j

(* The proposal draw of [Packed_ii], gated by [eligible]. *)
let draw sched st b =
  Packed_ii.draw st b
    ~eligible:
      (eligible sched ~iter:st.(b + off_iter)
         ~live_count:(Packed_ii.popcount (Packed_ii.live st b)))

(* ---------- packed machine ---------- *)

let machine ~seed ~sched : Packed.Port.machine =
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let b = node * sw in
        Packed_ii.init ~who:"Davies_peck" st b ~seed ~node
          ~degree:(g.Csr.row.(node + 1) - g.Csr.row.(node));
        st.(b + off_iter) <- 0;
        draw sched st b);
    send = Packed_ii.send ~sw;
    recv =
      (fun ~g ~mirror ~st ~out ~node ->
        let b = node * sw in
        if Packed_ii.step ~g ~mirror ~out st b ~node then begin
          st.(b + off_iter) <- st.(b + off_iter) + 1;
          draw sched st b
        end);
    halted = Packed_ii.halted ~sw;
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
  ( { mate = Packed_ii.mates ~who:"Davies_peck" ~sw g st;
      rounds = stats.Packed.rounds },
    stats )

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
