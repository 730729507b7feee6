module Obs = Ld_obs.Obs
module Hist = Ld_obs.Hist
module Pool = Ld_pool.Pool

(* The one synchronous round loop of the runtime. Every executor —
   Anon_ec, Anon_po (via Anon) and Packed.Port — keeps its own
   state layout and hands this module two per-range closures; the
   worklist, the frozen flags, the domain split, compaction and the
   round/frontier tallies live here once. *)

type family = {
  hist : Hist.t;
  c_rounds : Obs.Counter.t;
  c_active : Obs.Counter.t;
}

let family prefix =
  {
    hist = Hist.make (prefix ^ ".round");
    c_rounds = Obs.Counter.make (prefix ^ ".rounds");
    c_active = Obs.Counter.make (prefix ^ ".active_nodes");
  }

let default_par_threshold = 4096

type t = {
  fam : family;
  limit : int;
  domains : int;
  par_threshold : int;
  row : int array;
  active : int array;
  frozen : Bytes.t;
  mutable n_active : int;
}

let create fam ~par_threshold ~domains ~limit row =
  if limit < 0 then
    invalid_arg (Printf.sprintf "Ld_runtime: negative round limit %d" limit);
  let n = Array.length row - 1 in
  {
    fam;
    limit;
    domains =
      (match domains with
      | Some d -> Stdlib.max 1 d
      | None -> Pool.default_domains ());
    par_threshold;
    row;
    active = Array.make (Stdlib.max 1 n) 0;
    frozen = Bytes.make (Stdlib.max 1 n) '\000';
    n_active = 0;
  }

let domains e = e.domains
let active e = e.active
let frozen e = e.frozen
let freeze e v = Bytes.set e.frozen v '\001'

let split e len f =
  if e.domains > 1 && len >= e.par_threshold then
    ignore
      (Pool.mapi ~domains:e.domains
         (fun chunk (lo, hi) -> f chunk lo hi)
         (Chunk.ranges len e.domains)
        : unit list)
  else f 0 0 len

type totals = {
  rounds : int;
  active_sum : int;
  degree_sum : int;
  all_halted : bool;
}

let run e ~halted ~recv ~refresh =
  let row = e.row and active = e.active and frozen = e.frozen in
  let n = Array.length row - 1 in
  let deg = ref 0 in
  for v = 0 to n - 1 do
    if halted v then freeze e v
    else begin
      active.(e.n_active) <- v;
      e.n_active <- e.n_active + 1;
      deg := !deg + row.(v + 1) - row.(v)
    end
  done;
  let active_sum = ref 0 and degree_sum = ref 0 in
  (* Phase 1 (recv) reads only what the previous round published and
     writes each active node's own slots; phase 2 (refresh) publishes
     the new round and sets frozen flags. Ranges are disjoint, so both
     phases fan out race-free and merge in submission order. *)
  let round () =
    let m = e.n_active in
    active_sum := !active_sum + m;
    degree_sum := !degree_sum + !deg;
    split e m recv;
    split e m refresh;
    (* Compact the worklist in place, preserving node order. *)
    let w = ref 0 in
    deg := 0;
    for k = 0 to m - 1 do
      let v = active.(k) in
      if Bytes.get frozen v = '\000' then begin
        active.(!w) <- v;
        incr w;
        deg := !deg + row.(v + 1) - row.(v)
      end
    done;
    e.n_active <- !w
  in
  let rounds = ref 0 in
  while e.n_active > 0 && !rounds < e.limit do
    Hist.timed e.fam.hist round;
    incr rounds
  done;
  Obs.Counter.add e.fam.c_rounds !rounds;
  Obs.Counter.add e.fam.c_active !active_sum;
  {
    rounds = !rounds;
    active_sum = !active_sum;
    degree_sum = !degree_sum;
    all_halted = e.n_active = 0;
  }
