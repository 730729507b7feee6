module Csr = Ld_graph.Csr
module Obs = Ld_obs.Obs

(* Packed-state executor: per-node state is [n * state_words] ints in
   one flat array, per-dart messages are [msg_words] ints in another —
   no boxed records, no lists, no per-round allocation. This is what
   lets a round over 10^6 nodes stay bandwidth-bound instead of
   GC-bound. The executor only sizes [st] and never indexes it; each
   machine chooses where a node's words sit (node-major slices or
   field-major columns), updates them in place and reads peers'
   message slices directly.

   Rounds run on [Engine], the same core as the anonymous executors;
   the differential oracle is [Port.reference_run] below. Phase 1 (recv)
   reads only [out] and writes only the node's own state words; phase
   2 (send/refresh) writes only the node's own [out] slices and its
   frozen flag. Ranges touch disjoint words, so the result is
   byte-identical at any [LD_DOMAINS]. A node that halts has its final messages written in
   the same phase, after which its slots are never touched again. *)

let c_sends = Obs.Counter.make "runtime.packed.sends"
let c_darts = Obs.Counter.make "runtime.packed.darts_scanned"

(* Also feeds the per-round latency histogram the bench resets around
   each measured run and reads p50/p99 off. *)
let fam = Engine.family "runtime.packed"

type stats = { rounds : int; sends : int; darts_scanned : int }

let default_par_threshold = Engine.default_par_threshold

module Port = struct
  type machine = {
    state_words : int;
    msg_words : int;
    init : g:Csr.t -> st:int array -> node:int -> unit;
    send : g:Csr.t -> st:int array -> out:int array -> node:int -> unit;
    recv :
      g:Csr.t -> mirror:int array -> st:int array -> out:int array ->
      node:int -> unit;
    halted : st:int array -> node:int -> bool;
  }

  let run_until ?(par_threshold = default_par_threshold) ?domains m
      ~max_rounds (g : Csr.t) =
    Obs.with_span "runtime.packed.port" @@ fun () ->
    let row = g.Csr.row in
    let e = Engine.create fam ~par_threshold ~domains ~limit:max_rounds row in
    let n = g.Csr.n in
    let nd = row.(n) in
    let mirror = Csr.mirror g in
    let st = Array.make (Stdlib.max 1 (n * m.state_words)) 0 in
    (* Per-dart message slots: the message node [v] sends on port [p]
       lives at [(row.(v) + p) * msg_words]. The far end reads it back
       at [mirror.(d) * msg_words] for its own dart [d]; a halted
       sender's final messages simply stay there. *)
    let out = Array.make (Stdlib.max 1 (nd * m.msg_words)) 0 in
    Engine.split e n (fun _ lo hi ->
        for v = lo to hi - 1 do
          m.init ~g ~st ~node:v;
          m.send ~g ~st ~out ~node:v
        done);
    let active = Engine.active e in
    let recv_range _ lo hi =
      for k = lo to hi - 1 do
        m.recv ~g ~mirror ~st ~out ~node:active.(k)
      done
    in
    let refresh_range _ lo hi =
      for k = lo to hi - 1 do
        let v = active.(k) in
        m.send ~g ~st ~out ~node:v;
        if m.halted ~st ~node:v then Engine.freeze e v
      done
    in
    let t =
      Engine.run e
        ~halted:(fun v -> m.halted ~st ~node:v)
        ~recv:recv_range ~refresh:refresh_range
    in
    (* Every active node rewrites and every recv phase sees exactly the
       active nodes' darts. *)
    let stats =
      { rounds = t.rounds; sends = nd + t.degree_sum; darts_scanned = t.degree_sum }
    in
    Obs.Counter.add c_sends stats.sends;
    Obs.Counter.add c_darts stats.darts_scanned;
    (st, stats, t.all_halted)

  (* Dense differential oracle, the packed counterpart of
     [Anon.reference]: every non-halted node receives, then every node
     (halted ones too) rewrites its messages, [Array.for_all] halting
     scan — what [run_until] must agree with, word for word. *)
  let reference_run m ~max_rounds (g : Csr.t) =
    let n = g.Csr.n in
    let mirror = Csr.mirror g in
    let st = Array.make (Stdlib.max 1 (n * m.state_words)) 0 in
    let out = Array.make (Stdlib.max 1 (g.Csr.row.(n) * m.msg_words)) 0 in
    let nodes = Array.init n Fun.id in
    let halted v = m.halted ~st ~node:v in
    let send_all () = Array.iter (fun v -> m.send ~g ~st ~out ~node:v) nodes in
    Array.iter (fun v -> m.init ~g ~st ~node:v) nodes;
    send_all ();
    let rounds = ref 0 in
    while !rounds < max_rounds && not (Array.for_all halted nodes) do
      Array.iter
        (fun v -> if not (halted v) then m.recv ~g ~mirror ~st ~out ~node:v)
        nodes;
      send_all ();
      incr rounds
    done;
    (st, !rounds, Array.for_all halted nodes)
end

(* Deterministic per-node coin stream for packed randomized machines:
   [Random.State] cannot live in an int slice, so packed machines draw
   from a splitmix-style hash whose one-word state is part of the
   node's slice. The coins are therefore part of the state array,
   which is what makes [Port.reference_run] an exact oracle for
   randomised machines rather than a distributional one. *)
module Coin = struct
  let mask = (1 lsl 62) - 1

  (* splitmix64-flavoured mixer on 62-bit words (the constants are the
     splitmix64 ones truncated to fit OCaml's boxed-free int range —
     we only need a well-scrambled deterministic stream, not the
     reference output). *)
  let mix z =
    let z = (z + 0x1E3779B97F4A7C15) land mask in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land mask in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land mask in
    (z lxor (z lsr 31)) land mask

  let seed ~seed ~node = mix (mix (seed land mask) + node)

  (* Advance the stream: returns the next state; extract bits from the
     returned word with [bool]/[int]. *)
  let next s = mix (s + 1)
  let bool s = s land 1 = 1

  let int s bound =
    if bound <= 0 then invalid_arg "Packed.Coin.int";
    (s lsr 1) mod bound
end
