module Obs = Ld_obs.Obs

(* Shared body of Anon_ec and Anon_po: the two models differ only in
   how a dart is named, and both name it with an int key that is
   ascending along each node's dart table segment. An EC graph keeps
   its loops apart from the table, as a run of keys per node; a PO
   graph keeps them in it. *)

type loops = { lrow : int array; lkeys : int array }

let no_loops = { lrow = [||]; lkeys = [||] }

module Inbox = struct
  (* A cursor over one node's dart segment [lo, hi) of the table's
     [key] and [other] arrays and its loop run [llo, lhi) of [lkeys],
     held directly (and searched by [find] directly) so a dart read
     costs one load: reading them through the [Darts.t] record slowed
     THM1 probes measurably. A loop reflects: it delivers the node's
     own broadcast. [out.(u)] is node [u]'s current broadcast; a set
     [frozen] byte means that broadcast was cached at halt time.
     Tallies accumulate across rounds and are flushed to the counters
     once per run.

     Indexed reads walk the merge of the two runs in colour order with
     a cursor: before merged index [ci] come the edge darts
     [lo, ce) and the loops [llo, cl), so reading the entries in order
     costs one step each. *)
  type 'msg t = {
    keys : int array;
    others : int array;
    lrow : int array;
    lkeys : int array;
    out : 'msg array;
    frozen : Bytes.t;
    mutable node : int;
    mutable lo : int;
    mutable hi : int;
    mutable llo : int;
    mutable lhi : int;
    mutable ci : int;
    mutable ce : int;
    mutable cl : int;
    mutable darts : int;
    mutable reflected : int;
    mutable hits : int;
  }

  let make ~keys ~others ~(loops : loops) ~out ~frozen =
    {
      keys;
      others;
      lrow = loops.lrow;
      lkeys = loops.lkeys;
      out;
      frozen;
      node = 0;
      lo = 0;
      hi = 0;
      llo = 0;
      lhi = 0;
      ci = 0;
      ce = 0;
      cl = 0;
      darts = 0;
      reflected = 0;
      hits = 0;
    }

  let at ib row v =
    ib.node <- v;
    ib.lo <- row.(v);
    ib.hi <- row.(v + 1);
    if Array.length ib.lrow > 0 then begin
      ib.llo <- ib.lrow.(v);
      ib.lhi <- ib.lrow.(v + 1)
    end;
    ib.ci <- 0;
    ib.ce <- ib.lo;
    ib.cl <- ib.llo

  let degree ib = ib.hi - ib.lo + ib.lhi - ib.llo

  let read ib d =
    let u = ib.others.(d) in
    ib.darts <- ib.darts + 1;
    if u = ib.node then ib.reflected <- ib.reflected + 1
    else if Bytes.get ib.frozen u <> '\000' then ib.hits <- ib.hits + 1;
    ib.out.(u)

  let reflect ib =
    ib.darts <- ib.darts + 1;
    ib.reflected <- ib.reflected + 1;
    ib.out.(ib.node)

  (* Whether the entry at the cursor is an edge dart (else a loop). *)
  let edge_next ib =
    ib.ce < ib.hi && (ib.cl >= ib.lhi || ib.keys.(ib.ce) < ib.lkeys.(ib.cl))

  (* Move the cursor to merged index [i]: straight there when the node
     has no loops or [i] is the last entry (the larger of the two runs'
     last keys), else stepping, from the start if it is behind. *)
  let seek ib i =
    let deg = degree ib in
    if i < 0 || i >= deg then invalid_arg "Inbox: dart index out of range";
    if ib.llo = ib.lhi then begin
      ib.ci <- i;
      ib.ce <- ib.lo + i
    end
    else if i = deg - 1 then begin
      ib.ci <- i;
      if ib.hi > ib.lo && ib.keys.(ib.hi - 1) > ib.lkeys.(ib.lhi - 1) then begin
        ib.ce <- ib.hi - 1;
        ib.cl <- ib.lhi
      end
      else begin
        ib.ce <- ib.hi;
        ib.cl <- ib.lhi - 1
      end
    end
    else begin
      if i < ib.ci then begin
        ib.ci <- 0;
        ib.ce <- ib.lo;
        ib.cl <- ib.llo
      end;
      while ib.ci < i do
        if edge_next ib then ib.ce <- ib.ce + 1 else ib.cl <- ib.cl + 1;
        ib.ci <- ib.ci + 1
      done
    end

  let key ib i =
    seek ib i;
    if edge_next ib then ib.keys.(ib.ce) else ib.lkeys.(ib.cl)

  let msg ib i =
    seek ib i;
    if edge_next ib then read ib ib.ce else reflect ib

  (* The entry keyed [k]: its dart index, [-1] for a loop, [-2] for
     none. The edge segment is searched first, then the loop run. *)
  let locate ib k =
    let d = Ld_models.Darts.search ib.keys ib.lo ib.hi k in
    if d >= 0 then d
    else if Ld_models.Darts.search ib.lkeys ib.llo ib.lhi k >= 0 then -1
    else -2

  let find ib k =
    match locate ib k with
    | -2 -> None
    | -1 -> Some (reflect ib)
    | d -> Some (read ib d)

  let find_or ib k ~default =
    match locate ib k with
    | -2 -> default
    | -1 -> reflect ib
    | d -> read ib d

  let fold f acc ib =
    let r = ref acc and d = ref ib.lo and j = ref ib.llo in
    while !d < ib.hi || !j < ib.lhi do
      if !d < ib.hi && (!j >= ib.lhi || ib.keys.(!d) < ib.lkeys.(!j)) then begin
        r := f !r ib.keys.(!d) (read ib !d);
        incr d
      end
      else begin
        r := f !r ib.lkeys.(!j) (reflect ib);
        incr j
      end
    done;
    !r
end

type ('state, 'msg) machine = {
  init : unit Inbox.t -> 'state;
  send : 'state -> 'msg;
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

(* Every node's initial state, read through an inbox with no messages
   behind it. *)
let init loops (g : Ld_models.Darts.t) m =
  let ib = Inbox.make ~keys:g.key ~others:g.other ~loops ~out:[||] ~frozen:Bytes.empty in
  Array.init (Ld_models.Darts.n g) (fun v ->
      Inbox.at ib g.row v;
      m.init ib)

type family = {
  engine : Engine.family;
  c_darts : Obs.Counter.t;
  c_reflected : Obs.Counter.t;
  c_sends : Obs.Counter.t;
  c_cache_hits : Obs.Counter.t;
}

(* [darts_scanned] counts inbox reads actually performed by machines;
   [send_cache_hits] counts reads served from a halted sender's frozen
   broadcast; [active_nodes] sums the worklist size over rounds. *)
let family prefix =
  let c name = Obs.Counter.make (prefix ^ "." ^ name) in
  {
    engine = Engine.family prefix;
    c_darts = c "darts_scanned";
    c_reflected = c "loop_reflected";
    c_sends = c "sends";
    c_cache_hits = c "send_cache_hits";
  }

let run fam ~par_threshold ~domains ~limit ?(loops = no_loops) m
    (g : Ld_models.Darts.t) =
  let { send; recv; halted; _ } = m in
  let states = init loops g m in
  let e = Engine.create fam.engine ~par_threshold ~domains ~limit g.row in
  (* Broadcasts, computed once per (node, round); a halted node's slot
     is written one last time when it freezes and then reused. *)
  let out = Array.map send states in
  let inboxes =
    Array.init (Engine.domains e) (fun _ ->
        Inbox.make ~keys:g.key ~others:g.other ~loops ~out
          ~frozen:(Engine.frozen e))
  in
  let active = Engine.active e in
  let recv_range chunk lo hi =
    let ib = inboxes.(chunk) in
    for k = lo to hi - 1 do
      let v = active.(k) in
      Inbox.at ib g.row v;
      states.(v) <- recv states.(v) ib
    done
  in
  let refresh_range _ lo hi =
    for k = lo to hi - 1 do
      let v = active.(k) in
      out.(v) <- send states.(v);
      if halted states.(v) then Engine.freeze e v
    done
  in
  let t =
    Engine.run e
      ~halted:(fun v -> halted states.(v))
      ~recv:recv_range ~refresh:refresh_range
  in
  let sum f = Array.fold_left (fun acc ib -> acc + f ib) 0 inboxes in
  Obs.Counter.add fam.c_darts (sum (fun ib -> ib.Inbox.darts));
  Obs.Counter.add fam.c_reflected (sum (fun ib -> ib.Inbox.reflected));
  Obs.Counter.add fam.c_sends (Array.length states + t.active_sum);
  Obs.Counter.add fam.c_cache_hits (sum (fun ib -> ib.Inbox.hits));
  (states, t.rounds)

(* Dense differential oracle: recompute every broadcast each round, walk
   every non-halted inbox, [Array.for_all] halting scan — the executor
   [run] must agree with, state for state and round for round. *)
let reference ~limit ?(loops = no_loops) m (g : Ld_models.Darts.t) =
  let { send; recv; halted; _ } = m in
  let states = ref (init loops g m) and rounds = ref 0 in
  let frozen = Bytes.make (Stdlib.max 1 (Array.length !states)) '\000' in
  while !rounds < limit && not (Array.for_all halted !states) do
    let ib =
      Inbox.make ~keys:g.key ~others:g.other ~loops
        ~out:(Array.map send !states) ~frozen
    in
    states :=
      Array.mapi
        (fun v s ->
          if halted s then s
          else begin
            Inbox.at ib g.row v;
            recv s ib
          end)
        !states;
    incr rounds
  done;
  (!states, !rounds)
