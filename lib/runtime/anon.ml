module Obs = Ld_obs.Obs

(* Shared body of Anon_ec and Anon_po: the two models differ only in
   how a dart is named, and both name it with an int key that is
   ascending along each node's dart table segment. *)

module Inbox = struct
  (* A cursor over one node's dart segment [lo, hi) of the table's
     [key] and [other] arrays, held directly (and searched by [find]
     directly) so a dart read costs one load: reading them through the
     [Darts.t] record slowed THM1 probes measurably. [out.(u)] is node
     [u]'s current broadcast; a set [frozen] byte means that broadcast
     was cached at halt time. Tallies accumulate across rounds and are
     flushed to the counters once per run. *)
  type 'msg t = {
    keys : int array;
    others : int array;
    out : 'msg array;
    frozen : Bytes.t;
    mutable node : int;
    mutable lo : int;
    mutable hi : int;
    mutable darts : int;
    mutable reflected : int;
    mutable hits : int;
  }

  let make ~keys ~others ~out ~frozen =
    {
      keys;
      others;
      out;
      frozen;
      node = 0;
      lo = 0;
      hi = 0;
      darts = 0;
      reflected = 0;
      hits = 0;
    }

  let at ib row v =
    ib.node <- v;
    ib.lo <- row.(v);
    ib.hi <- row.(v + 1)

  let degree ib = ib.hi - ib.lo
  let key ib i = ib.keys.(ib.lo + i)

  let read ib d =
    let u = ib.others.(d) in
    ib.darts <- ib.darts + 1;
    if u = ib.node then ib.reflected <- ib.reflected + 1
    else if Bytes.get ib.frozen u <> '\000' then ib.hits <- ib.hits + 1;
    ib.out.(u)

  let msg ib i = read ib (ib.lo + i)

  let find ib k =
    let rec go lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let c = ib.keys.(mid) in
        if c = k then Some (read ib mid)
        else if c < k then go (mid + 1) hi
        else go lo mid
      end
    in
    go ib.lo ib.hi

  let fold f acc ib =
    let r = ref acc in
    for d = ib.lo to ib.hi - 1 do
      r := f !r ib.keys.(d) (read ib d)
    done;
    !r
end

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
    engine = Engine.family ~timed:true prefix;
    c_darts = c "darts_scanned";
    c_reflected = c "loop_reflected";
    c_sends = c "sends";
    c_cache_hits = c "send_cache_hits";
  }

let run fam ~par_threshold ~domains ~limit ~send ~recv ~halted (g : Ld_models.Darts.t)
    states =
  let e = Engine.create fam.engine ~par_threshold ~domains ~limit g.row in
  (* Broadcasts, computed once per (node, round); a halted node's slot
     is written one last time when it freezes and then reused. *)
  let out = Array.map send states in
  let inboxes =
    Array.init (Engine.domains e) (fun _ ->
        Inbox.make ~keys:g.key ~others:g.other ~out
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
let reference ~limit ~send ~recv ~halted (g : Ld_models.Darts.t) states =
  let frozen = Bytes.make (Stdlib.max 1 (Array.length states)) '\000' in
  let states = ref states and rounds = ref 0 in
  while !rounds < limit && not (Array.for_all halted !states) do
    let ib =
      Inbox.make ~keys:g.key ~others:g.other
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
