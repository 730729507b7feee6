module G = Ld_graph.Graph
module Csr = Ld_graph.Csr
module Id = Ld_models.Labelled.Id
module Packed = Ld_runtime.Packed

(* Israeli–Itai in the ID model: [Packed_ii]'s propose/respond
   transitions with the coins drawn from one [Random.State] per node,
   seeded from [(seed, id)] in [init]. The coin word of the slice is
   written but never read; the generators live beside the state array,
   one per node, touched only by that node's [init] and [recv], so runs
   agree with [Packed.Port.reference_run] at any [LD_DOMAINS]. *)

type result = { mate : int option array; rounds : int }

let max_degree = 62

(* Draw order: a bool only if any live port remains, then an int over
   the live ports only for proposers. *)
let draw rng st b =
  let live = Packed_ii.live st b in
  if live <> 0 && Random.State.bool rng then
    Packed_ii.propose st b (Random.State.int rng (Packed_ii.popcount live))
  else Packed_ii.no_proposal st b

let machine ~seed idg : Packed.Port.machine =
  let sw = Packed_ii.words in
  let rngs = Array.make (G.n (Id.graph idg)) (Random.State.make [||]) in
  {
    state_words = sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~lo ~hi ->
        for v = lo to hi - 1 do
          let b = v * sw in
          Packed_ii.init ~who:"Israeli_itai" st b ~seed ~node:v
            ~degree:(g.Csr.row.(v + 1) - g.Csr.row.(v));
          rngs.(v) <- Random.State.make [| seed; Id.id idg v; 0x5ca1e |];
          draw rngs.(v) st b
        done);
    send = Packed_ii.send;
    recv =
      (fun ~g ~st ~out nodes ~lo ~hi ->
        let row = g.Csr.row and mirror = g.Csr.mirror in
        for k = lo to hi - 1 do
          let v = nodes.(k) in
          let b = v * sw in
          if Packed_ii.step ~row ~mirror ~out st b ~node:v then
            draw rngs.(v) st b
        done);
  }

let run ~seed ~max_rounds idg =
  (* The transitions never read colours; one colour per edge is proper. *)
  let { G.n; row; endpoint; m } = Id.graph idg in
  let colour = Array.make (Array.length endpoint) 0 in
  for v = 0 to n - 1 do
    for d = row.(v) to row.(v + 1) - 1 do
      let w = endpoint.(d) in
      colour.(d) <- (Stdlib.min v w * n) + Stdlib.max v w
    done
  done;
  let mirror = G.mirror (Id.graph idg) in
  let g = { Csr.n; row; endpoint; colour; mirror; m } in
  let r, _ =
    Packed_ii.run_machine ~who:"Israeli_itai" (machine ~seed idg) ~max_rounds g
  in
  {
    mate = Array.map (fun w -> if w < 0 then None else Some w) r.Packed_ii.mate;
    rounds = r.Packed_ii.rounds;
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
