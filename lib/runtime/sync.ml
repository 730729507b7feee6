module G = Ld_graph.Graph
module Id = Ld_models.Labelled.Id
module Obs = Ld_obs.Obs

(* Active-frontier tallies for the ID-model simulator. [sends] counts
   live [machine.send] calls; [send_cache_hits] counts messages served
   from a halted sender's per-port cache instead. Rounds and frontier
   sizes are the engine's [runtime.sync.*] counters; no histogram. *)
let fam = Engine.family ~timed:false "runtime.sync"
let c_sends = Obs.Counter.make "runtime.sync.sends"
let c_cache_hits = Obs.Counter.make "runtime.sync.send_cache_hits"

type ('state, 'msg, 'out) machine = {
  init : id:int -> degree:int -> rng:Random.State.t -> 'state;
  send : 'state -> port:int -> 'msg option;
  recv : 'state -> (int * 'msg) list -> 'state;
  output : 'state -> 'out option;
}

type 'out result = { outputs : 'out array; rounds : int }

(* Receiver-driven execution on [Engine]: instead of pushing every
   node's sends into per-receiver lists and sorting them, the recv
   phase has each active node pull the message for its own port [r]
   straight from the sender across that port, from the pre-round
   states; the refresh phase then steps the states. Ports are distinct
   per receiver (the graph is simple), so walking own ports in
   ascending order reproduces exactly the port-sorted inbox the
   push-and-sort loop built. A halted sender's state is frozen, so its
   per-port messages are computed once at halt time and served from a
   flat dart-indexed cache ever after. The run stays on one domain:
   the tallies are plain refs. *)
let run machine ~seed ~max_rounds idg =
  Obs.with_span "runtime.sync.run" @@ fun () ->
  let g = Id.graph idg in
  let n = G.n g in
  (* Port p of node v leads to its p-th smallest neighbour. *)
  let ports = Array.init n (fun v -> Array.of_list (G.neighbours g v)) in
  (* port_of.(v).(p) is the port of the far endpoint that leads back. *)
  let port_of = Array.make n [||] in
  for v = 0 to n - 1 do
    port_of.(v) <-
      Array.map
        (fun w ->
          let back = ref (-1) in
          Array.iteri (fun q x -> if x = v then back := q) ports.(w);
          !back)
        ports.(v)
  done;
  (* Dart row offsets for the frozen-sender cache: the message a halted
     node v sends on port p lives at cache.(rowf.(v) + p). *)
  let rowf = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    rowf.(v + 1) <- rowf.(v) + Array.length ports.(v)
  done;
  let e =
    Engine.create fam ~par_threshold:max_int ~domains:(Some 1)
      ~limit:max_rounds rowf
  in
  let states =
    Array.init n (fun v ->
        let rng = Random.State.make [| seed; Id.id idg v; 0x5ca1e |] in
        machine.init ~id:(Id.id idg v) ~degree:(Array.length ports.(v)) ~rng)
  in
  let cache = Array.make (Stdlib.max 1 rowf.(n)) None in
  let fill_cache v =
    let base = rowf.(v) in
    for p = 0 to Array.length ports.(v) - 1 do
      cache.(base + p) <- machine.send states.(v) ~port:p
    done
  in
  let halted v = machine.output states.(v) <> None in
  for v = 0 to n - 1 do
    if halted v then fill_cache v
  done;
  let active = Engine.active e in
  let inboxes = Array.make (Stdlib.max 1 n) [] in
  let sends = ref 0 and hits = ref 0 in
  let recv_range _ lo hi =
    for k = lo to hi - 1 do
      let v = active.(k) in
      let pv = ports.(v) and bv = port_of.(v) in
      let acc = ref [] in
      for r = Array.length pv - 1 downto 0 do
        let w = pv.(r) in
        let q = bv.(r) in
        let m =
          if Engine.is_frozen e w then begin
            incr hits;
            cache.(rowf.(w) + q)
          end
          else begin
            incr sends;
            machine.send states.(w) ~port:q
          end
        in
        match m with None -> () | Some m -> acc := (r, m) :: !acc
      done;
      inboxes.(v) <- !acc
    done
  in
  let refresh_range _ lo hi =
    for k = lo to hi - 1 do
      let v = active.(k) in
      states.(v) <- machine.recv states.(v) inboxes.(v);
      if halted v then begin
        fill_cache v;
        Engine.freeze e v
      end
    done
  in
  let t = Engine.run e ~halted ~recv:recv_range ~refresh:refresh_range in
  Obs.Counter.add c_sends !sends;
  Obs.Counter.add c_cache_hits !hits;
  let outputs =
    Array.init n (fun v ->
        match machine.output states.(v) with
        | Some o -> o
        | None ->
          failwith
            (Printf.sprintf
               "Sync.run: node %d (id %d) did not halt within %d rounds" v
               (Id.id idg v) max_rounds))
  in
  { outputs; rounds = t.rounds }
