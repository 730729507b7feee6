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

   A machine's callbacks take node ranges: [init] over [lo, hi), and
   [recv]/[send] over positions [lo, hi) of a worklist, [send] also
   setting the frozen byte of every node it finds halted. The per-node
   loop therefore lives in the machine's module, where its per-node
   calls are direct; here a call per range is all that crosses a
   module.

   Rounds run on [Engine], the same core as the anonymous executors;
   the differential oracle is [Port.reference_run] below. Phase 1 (recv)
   reads only [out] and writes only its nodes' own state words; phase
   2 (send) writes only its nodes' [out] slices and frozen flags.
   Ranges touch disjoint words, so the result is byte-identical at any
   [LD_DOMAINS]. A node that halts has its final messages written in
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
    init : g:Csr.t -> st:int array -> lo:int -> hi:int -> unit;
    send :
      g:Csr.t -> st:int array -> out:int array -> frozen:Bytes.t ->
      int array -> lo:int -> hi:int -> unit;
    recv :
      g:Csr.t -> st:int array -> out:int array -> int array -> lo:int ->
      hi:int -> unit;
  }

  let run_until ?(par_threshold = default_par_threshold) ?domains m
      ~max_rounds (g : Csr.t) =
    Obs.with_span "runtime.packed.port" @@ fun () ->
    let row = g.Csr.row in
    let e = Engine.create fam ~par_threshold ~domains ~limit:max_rounds row in
    let n = g.Csr.n in
    let nd = row.(n) in
    let active = Engine.active e and frozen = Engine.frozen e in
    let st, out =
      Obs.with_span "runtime.packed.init" @@ fun () ->
      let st = Array.make (Stdlib.max 1 (n * m.state_words)) 0 in
      (* Per-dart message slots: the message node [v] sends on port [p]
         lives at [(row.(v) + p) * msg_words]. The far end reads it back
         at [g.mirror.(d) * msg_words] for its own dart [d]; a halted
         sender's final messages simply stay there. *)
      let out = Array.make (Stdlib.max 1 (nd * m.msg_words)) 0 in
      (* The initial broadcast runs over the identity worklist; the
         engine rebuilds the worklist from the frozen bytes it leaves. *)
      Engine.split e n (fun _ lo hi ->
          m.init ~g ~st ~lo ~hi;
          for v = lo to hi - 1 do
            active.(v) <- v
          done;
          m.send ~g ~st ~out ~frozen active ~lo ~hi);
      (st, out)
    in
    let t =
      Engine.run e
        ~halted:(fun v -> Bytes.get frozen v <> '\000')
        ~recv:(fun _ lo hi -> m.recv ~g ~st ~out active ~lo ~hi)
        ~refresh:(fun _ lo hi -> m.send ~g ~st ~out ~frozen active ~lo ~hi)
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
     (halted ones too) rewrites its messages into freshly cleared
     halting flags — what [run_until] must agree with, word for
     word. *)
  let reference_run m ~max_rounds (g : Csr.t) =
    let n = g.Csr.n in
    let st = Array.make (Stdlib.max 1 (n * m.state_words)) 0 in
    let out = Array.make (Stdlib.max 1 (g.Csr.row.(n) * m.msg_words)) 0 in
    let frozen = Bytes.make (Stdlib.max 1 n) '\000' in
    let nodes = Array.init n Fun.id in
    let halted v = Bytes.get frozen v <> '\000' in
    let send_all () =
      Bytes.fill frozen 0 n '\000';
      m.send ~g ~st ~out ~frozen nodes ~lo:0 ~hi:n
    in
    m.init ~g ~st ~lo:0 ~hi:n;
    send_all ();
    let rounds = ref 0 in
    while !rounds < max_rounds && not (Array.for_all halted nodes) do
      let live =
        Array.of_seq (Seq.filter (fun v -> not (halted v)) (Array.to_seq nodes))
      in
      m.recv ~g ~st ~out live ~lo:0 ~hi:(Array.length live);
      send_all ();
      incr rounds
    done;
    (st, !rounds, Array.for_all halted nodes)
end
