module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Id = Ld_models.Labelled.Id
module Packed = Ld_runtime.Packed

(* Israeli–Itai in the ID model: [Packed_ii]'s propose/respond core
   with the coins drawn from one [Random.State] per node, seeded from
   [(seed, id)] in [init]. The coin word of the core slice is written
   but never read; the generators live beside the state array, one per
   node, touched only by that node's [init] and [recv], so runs agree
   with [Packed.Port.reference_run] at any [LD_DOMAINS]. *)

type result = { mate : int option array; rounds : int }

let max_degree = 62

(* Draw order: a bool only if any live port remains, then an int over
   the live ports only for proposers. *)
let draw rng st b =
  let live = Packed_ii.live st b in
  if live <> 0 && Random.State.bool rng then
    Packed_ii.propose st b (Random.State.int rng (Packed_ii.popcount live))
  else Packed_ii.draw st b ~eligible:false

let machine ~seed idg : Packed.Port.machine =
  let sw = Packed_ii.words in
  let rngs = Array.make (G.n (Id.graph idg)) (Random.State.make [||]) in
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~node ->
        let b = node * sw in
        Packed_ii.init ~who:"Israeli_itai" st b ~seed ~node
          ~degree:(g.Csr.row.(node + 1) - g.Csr.row.(node));
        rngs.(node) <- Random.State.make [| seed; Id.id idg node; 0x5ca1e |];
        draw rngs.(node) st b);
    send = Packed_ii.send ~sw;
    recv =
      (fun ~g ~mirror ~st ~out ~node ->
        let b = node * sw in
        if Packed_ii.step ~g ~mirror ~out st b ~node then draw rngs.(node) st b);
    halted = Packed_ii.halted ~sw;
  }

let run ~seed ~max_rounds idg =
  (* The core never reads colours; one colour per edge is proper. *)
  let n = G.n (Id.graph idg) in
  let g = Csr.of_graph (Id.graph idg) ~colour:(fun (u, v) -> (u * n) + v) in
  let st, stats, all_halted =
    Packed.Port.run_until (machine ~seed idg) ~max_rounds g
  in
  if not all_halted then
    failwith
      (Printf.sprintf "Israeli_itai.run: not all nodes halted within %d rounds"
         max_rounds);
  let mate = Packed_ii.mates ~who:"Israeli_itai" ~sw:Packed_ii.words g st in
  {
    mate = Array.map (fun w -> if w < 0 then None else Some w) mate;
    rounds = stats.Packed.rounds;
  }

let is_mate opt (v : int) = match opt with Some w -> w = v | None -> false

let is_maximal g r =
  Array.for_all Fun.id
    (Array.mapi
       (fun v m -> match m with None -> true | Some w -> is_mate r.mate.(w) v)
       r.mate)
  && List.for_all
       (fun (u, v) -> r.mate.(u) <> None || r.mate.(v) <> None)
       (G.edges g)
