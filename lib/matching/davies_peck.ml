module Csr = Ld_graph.Csr

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
   and the iteration counter), and the coin word lives in the slice, so
   [Packed.Port.reference_run] is an exact oracle: identical states and
   rounds at any [LD_DOMAINS].

   The machine is [Packed_ii]'s kernel — its 3-word slice, whose
   control word also counts iterations, its transitions, message and
   halting test — with this schedule as the gate on the proposal draw;
   the class count is computed once per run. *)

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

type result = { mate : int array; rounds : int }

let machine ~seed ~sched =
  Packed_ii.gated ~who:"Davies_peck" ~seed
    {
      Packed_ii.delta = sched.delta;
      iters_per_class = sched.iters_per_class;
      classes = classes sched.delta;
    }

let default_schedule g =
  { delta = Stdlib.max 1 (Csr.max_degree g); iters_per_class = 2 }

let run ?par_threshold ?domains ?sched ~seed ~max_rounds g =
  let sched = match sched with Some s -> s | None -> default_schedule g in
  let r, stats =
    Packed_ii.run_machine ?par_threshold ?domains ~who:"Davies_peck"
      (machine ~seed ~sched) ~max_rounds g
  in
  ({ mate = r.Packed_ii.mate; rounds = r.Packed_ii.rounds }, stats)

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
