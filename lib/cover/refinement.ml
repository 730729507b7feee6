module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Darts
module Obs = Ld_obs.Obs

type history = int array array

(* Metrics of the partition-refinement path (DESIGN.md § Observability):
   rounds actually computed vs skipped by the stabilisation early-exit,
   block split events, and the group lookups inside dirty blocks (a
   hit joins a member to an existing group, a miss opens one). *)
let c_rounds = Obs.Counter.make "cover.refine.rounds"
let c_rounds_skipped = Obs.Counter.make "cover.refine.rounds_skipped"
let c_intern_hits = Obs.Counter.make "cover.refine.intern_hits"
let c_intern_misses = Obs.Counter.make "cover.refine.intern_misses"
let c_blocks_split = Obs.Counter.make "cover.refine.blocks_split"
let h_round = Ld_obs.Hist.make "cover.refine.round"

(* ------------------------------------------------------------------ *)
(* Round-synchronous Paige–Tarjan partition refinement.

   Blocks carry stable internal ids; node descriptors are computed
   against the id snapshot of the previous round, so a block only needs
   re-examination in round [r] if one of its members — or a neighbour of
   one — changed id in round [r-1]. When a dirty block splits, the
   {e largest} sub-block keeps the parent id (ties broken towards the
   first-encountered group, which is deterministic because members are
   scanned in slice order), so only members of the smaller parts are
   marked changed: every id change at least halves the node's block, so
   a node is marked O(log n) times and the total work is O(m log n)
   rather than O(m · rounds).

   Classical Paige–Tarjan is asynchronous — it may refine "ahead" of the
   round counter — which would be unsound here: [equivalent_radius]
   queries the partition after {e exactly} r rounds (radius-r view
   isomorphism, paper §3.1). The engine therefore stays round-
   synchronous: after the dense relabelling pass, round [r]'s labels
   number the radius-[r] views in first-occurrence order.

   Only darts that leave a block are read after round 1. Round 1 sees
   every label at 0, so it groups nodes by key sequence; blocks only
   split after that, so all members of a block [b] share one key
   sequence. A loop, or a dart into [b] itself, then reads [(key, b)]
   for every member and cannot tell two members apart: two members are
   equal iff their darts with [prev (other d) <> b] agree. An EC graph
   keeps its loops out of its dart table, which then holds exactly the
   darts that can leave a block, and rounds >= 2 read only that table,
   for grouping and for dirty marking alike. (A PO table keeps its loop
   darts; their far end is the node itself, in [b], so the same test
   skips them.)

   The engine reads one or two graphs: nodes [0 .. na - 1] are [a]'s
   and nodes [na .. n - 1] are [b]'s shifted by [na]. One graph's table
   is read in place; a cross-graph query refines the disjoint union
   over one concatenated copy of the two tables, never building the
   union graph. *)

(* A graph as the engine reads it: its dart table, and the loops kept
   out of it as a run of keys per node (none for PO). *)
type side = { darts : Darts.t; loop_row : int array; loop_key : int array }

let ec_side g =
  { darts = Ec.edge_darts g; loop_row = Ec.loop_row g; loop_key = Ec.loop_colour g }

let po_side g =
  let darts = Po.csr g in
  { darts; loop_row = Array.make (Darts.n darts + 1) 0; loop_key = [||] }

type engine = {
  a : side;
  b : side;
  na : int;
  n : int;
  (* The darts rounds >= 2 read, every node's in one segment
     [erow.(v) .. erow.(v + 1) - 1] in key order, far ends numbered as
     in the engine. *)
  erow : int array;
  ekey : int array;
  eother : int array;
  ids : int array; (* current block id per node *)
  ids_prev : int array; (* snapshot taken at the top of each round *)
  elems : int array; (* nodes grouped by block: one contiguous slice each *)
  blk_start : int array; (* slice start, indexed by block id *)
  blk_len : int array;
  mutable nblocks : int;
  (* Nodes whose id changed in the last completed round; double-buffered
     so a round can read the previous list while writing its own. *)
  mutable changed : int array;
  mutable nchanged : int;
  mutable changed_next : int array;
  mutable nchanged_next : int;
  dirty_stamp : int array; (* by block id; stamped with the round number *)
  dirty : int array;
  mutable ndirty : int;
  (* Scratch reused across rounds (all indexed within one block slice
     or by group index, both bounded by n). *)
  gidx : int array;
  member : int array;
  gcount : int array;
  gstart : int array;
  gfill : int array;
  grep : int array; (* first member of each group: what lookups compare to *)
  ghash : int array; (* its hash: members are compared only on a match *)
  (* Open addressing over group indices, [g + 1] per used slot and 0 for
     a free one. A block of [len] members uses the first power of two
     >= 2 len slots and frees them before the next block. *)
  slots : int array;
  dense_map : int array; (* internal id -> dense label, per relabel pass *)
  dense_stamp : int array;
  mutable split_last_round : bool;
}

let no_side =
  {
    darts = { Darts.row = [| 0 |]; key = [||]; other = [||]; code = [||] };
    loop_row = [| 0 |];
    loop_key = [||];
  }

let rec pow2_at_least k c = if c >= k then c else pow2_at_least k (2 * c)

let engine_create a b =
  let ta = a.darts and tb = b.darts in
  let na = Darts.n ta in
  let n = na + Darts.n tb in
  let erow, ekey, eother =
    if n = na then (ta.row, ta.key, ta.other)
    else begin
      let ma = ta.row.(na) in
      let mb = tb.row.(n - na) in
      let erow = Array.make (n + 1) ma in
      let ekey = Array.make (ma + mb) 0 and eother = Array.make (ma + mb) 0 in
      Darts.blit_ints ta.row 0 erow 0 na;
      for x = 1 to n - na do
        erow.(na + x) <- ma + tb.row.(x)
      done;
      Darts.blit_ints ta.key 0 ekey 0 ma;
      Darts.blit_ints tb.key 0 ekey ma mb;
      Darts.blit_ints ta.other 0 eother 0 ma;
      for d = 0 to mb - 1 do
        eother.(ma + d) <- tb.other.(d) + na
      done;
      (erow, ekey, eother)
    end
  in
  let sz = Stdlib.max 1 n in
  {
    a;
    b;
    na;
    n;
    erow;
    ekey;
    eother;
    ids = Array.make sz 0;
    ids_prev = Array.make sz 0;
    elems = Array.init sz (fun i -> i);
    blk_start = Array.make sz 0;
    blk_len = (let l = Array.make sz 0 in l.(0) <- n; l);
    nblocks = 1;
    changed = Array.make sz 0;
    nchanged = 0;
    changed_next = Array.make sz 0;
    nchanged_next = 0;
    dirty_stamp = Array.make sz (-1);
    dirty = Array.make sz 0;
    ndirty = 0;
    gidx = Array.make sz 0;
    member = Array.make sz 0;
    gcount = Array.make sz 0;
    gstart = Array.make sz 0;
    gfill = Array.make sz 0;
    grep = Array.make sz 0;
    ghash = Array.make sz 0;
    slots = Array.make (pow2_at_least (2 * sz) 2) 0;
    dense_map = Array.make sz 0;
    dense_stamp = Array.make sz (-1);
    split_last_round = false;
  }

(* FNV-1a over ints; [spread] folds the high bits into the slot bits. *)
let hash_seed = 0x811c9dc5
let[@inline] mix h x = (h lxor x) * 0x01000193
let[@inline] spread h = h lxor (h lsr 29)

(* Round 1: a node's descriptor is its key sequence, read from the
   source graph: darts and loops merged in key order, so a node with an
   edge of colour 1 and a loop of colour 2 matches one with a loop of
   colour 1 and an edge of colour 2. Keys at a node are distinct, so the
   sequence is the set of its keys, read from both runs in any order:
   the hash sums a scramble of each key, and two nodes are compared
   along the merge of their runs, holding a position in each and taking
   the smaller key next. *)
let side_of eng v = if v < eng.na then eng.a else eng.b
let local eng v = if v < eng.na then v else v - eng.na

let[@inline] scramble k =
  let x = k * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 29)) * 0x1CE4E5B9

let hash_keys eng v =
  let s = side_of eng v and x = local eng v in
  let h = ref hash_seed in
  for d = s.darts.row.(x) to s.darts.row.(x + 1) - 1 do
    h := !h + scramble (Array.unsafe_get s.darts.key d)
  done;
  for j = s.loop_row.(x) to s.loop_row.(x + 1) - 1 do
    h := !h + scramble (Array.unsafe_get s.loop_key j)
  done;
  !h

let same_keys eng u w =
  let su = side_of eng u and u = local eng u in
  let sw = side_of eng w and w = local eng w in
  let du = ref su.darts.row.(u) and duhi = su.darts.row.(u + 1) in
  let ju = ref su.loop_row.(u) and juhi = su.loop_row.(u + 1) in
  let dw = ref sw.darts.row.(w) and dwhi = sw.darts.row.(w + 1) in
  let jw = ref sw.loop_row.(w) and jwhi = sw.loop_row.(w + 1) in
  let same = ref (duhi - !du + juhi - !ju = dwhi - !dw + jwhi - !jw) in
  while !same && (!du < duhi || !ju < juhi) do
    let ku =
      if !ju >= juhi || (!du < duhi && su.darts.key.(!du) < su.loop_key.(!ju)) then begin
        incr du;
        su.darts.key.(!du - 1)
      end
      else begin
        incr ju;
        su.loop_key.(!ju - 1)
      end
    in
    let kw =
      if !jw >= jwhi || (!dw < dwhi && sw.darts.key.(!dw) < sw.loop_key.(!jw)) then begin
        incr dw;
        sw.darts.key.(!dw - 1)
      end
      else begin
        incr jw;
        sw.loop_key.(!jw - 1)
      end
    in
    same := ku = kw
  done;
  !same

(* Rounds >= 2: a member [v] of block [b] is described by its darts
   that leave [b], as (key, previous block) pairs in key order. *)
let hash_leaving eng (prev : int array) (b : int) v =
  let h = ref hash_seed in
  for d = eng.erow.(v) to eng.erow.(v + 1) - 1 do
    let p = Array.unsafe_get prev (Array.unsafe_get eng.eother d) in
    if p <> b then h := mix (mix !h (Array.unsafe_get eng.ekey d)) p
  done;
  !h

let same_leaving eng (prev : int array) (b : int) u w =
  let { erow; ekey; eother; _ } = eng in
  let i = ref erow.(u) and j = ref erow.(w) in
  let iend = erow.(u + 1) and jend = erow.(w + 1) in
  let same = ref true and scanning = ref true in
  while !scanning do
    while !i < iend && prev.(eother.(!i)) = b do
      incr i
    done;
    while !j < jend && prev.(eother.(!j)) = b do
      incr j
    done;
    if !i = iend || !j = jend then begin
      same := !i = iend && !j = jend;
      scanning := false
    end
    else if ekey.(!i) <> ekey.(!j) || prev.(eother.(!i)) <> prev.(eother.(!j))
    then begin
      same := false;
      scanning := false
    end
    else begin
      incr i;
      incr j
    end
  done;
  !same

(* One refinement round. [r] must increase strictly across calls on the
   same engine (it doubles as the dirty stamp), starting at 1. *)
let engine_round_body eng r =
  let n = eng.n in
  let { erow; eother; _ } = eng in
  Darts.blit_ints eng.ids 0 eng.ids_prev 0 n;
  let prev = eng.ids_prev in
  (* Collect the blocks whose members' descriptors may have changed:
     blocks of changed nodes and blocks of their neighbours. Members of
     a split's largest part kept their id, so neither their own blocks
     nor their neighbours' read any different id value — they stay
     clean, which is exactly the smaller-half discipline. An EC loop
     leads back to the changed node's own block, so only the dart table
     is walked. *)
  eng.ndirty <- 0;
  let mark b =
    if eng.dirty_stamp.(b) <> r then begin
      eng.dirty_stamp.(b) <- r;
      eng.dirty.(eng.ndirty) <- b;
      eng.ndirty <- eng.ndirty + 1
    end
  in
  if r = 1 then mark 0
  else
    for ci = 0 to eng.nchanged - 1 do
      let v = eng.changed.(ci) in
      mark prev.(v);
      for d = erow.(v) to erow.(v + 1) - 1 do
        mark prev.(eother.(d))
      done
    done;
  eng.nchanged_next <- 0;
  let nsplit = ref 0 and ndesc = ref 0 and hits = ref 0 in
  for di = 0 to eng.ndirty - 1 do
    let b = eng.dirty.(di) in
    let len = eng.blk_len.(b) in
    (* A singleton can never split; its descriptor need not exist. *)
    if len > 1 then begin
      let s = eng.blk_start.(b) in
      let mask = pow2_at_least (2 * len) 2 - 1 in
      let ngroups = ref 0 in
      (* Group members by descriptor: hash it, then compare exactly
         against each candidate group's first member. Group indices
         follow first occurrence in slice order. *)
      for i = 0 to len - 1 do
        let v = eng.elems.(s + i) in
        let h = if r = 1 then hash_keys eng v else hash_leaving eng prev b v in
        let slot = ref (spread h land mask) and g = ref (-1) in
        while !g < 0 do
          let e = eng.slots.(!slot) in
          if e = 0 then begin
            let fresh = !ngroups in
            eng.slots.(!slot) <- fresh + 1;
            eng.grep.(fresh) <- v;
            eng.ghash.(fresh) <- h;
            ngroups := fresh + 1;
            g := fresh
          end
          else if
            eng.ghash.(e - 1) = h
            &&
            if r = 1 then same_keys eng eng.grep.(e - 1) v
            else same_leaving eng prev b eng.grep.(e - 1) v
          then begin
            incr hits;
            g := e - 1
          end
          else slot := (!slot + 1) land mask
        done;
        incr ndesc;
        eng.gidx.(i) <- !g;
        eng.gcount.(!g) <- eng.gcount.(!g) + 1
      done;
      Array.fill eng.slots 0 (mask + 1) 0;
      if !ngroups > 1 then begin
        incr nsplit;
        let largest = ref 0 in
        for g = 1 to !ngroups - 1 do
          if eng.gcount.(g) > eng.gcount.(!largest) then largest := g
        done;
        (* Stable re-layout of the slice: groups in first-occurrence
           order, members keeping their relative order — both needed for
           determinism of later tie-breaks. *)
        let acc = ref s in
        for g = 0 to !ngroups - 1 do
          eng.gstart.(g) <- !acc;
          eng.gfill.(g) <- !acc;
          acc := !acc + eng.gcount.(g)
        done;
        Darts.blit_ints eng.elems s eng.member 0 len;
        for i = 0 to len - 1 do
          let v = eng.member.(i) in
          let g = eng.gidx.(i) in
          let p = eng.gfill.(g) in
          eng.gfill.(g) <- p + 1;
          eng.elems.(p) <- v
        done;
        for g = 0 to !ngroups - 1 do
          let id =
            if g = !largest then b
            else begin
              let id = eng.nblocks in
              eng.nblocks <- id + 1;
              id
            end
          in
          eng.blk_start.(id) <- eng.gstart.(g);
          eng.blk_len.(id) <- eng.gcount.(g);
          if g <> !largest then
            for p = eng.gstart.(g) to eng.gstart.(g) + eng.gcount.(g) - 1 do
              let v = eng.elems.(p) in
              eng.ids.(v) <- id;
              eng.changed_next.(eng.nchanged_next) <- v;
              eng.nchanged_next <- eng.nchanged_next + 1
            done
        done
      end;
      for g = 0 to !ngroups - 1 do
        eng.gcount.(g) <- 0
      done
    end
  done;
  let tmp = eng.changed in
  eng.changed <- eng.changed_next;
  eng.changed_next <- tmp;
  eng.nchanged <- eng.nchanged_next;
  eng.split_last_round <- !nsplit > 0;
  Obs.Counter.incr c_rounds;
  Obs.Counter.add c_intern_hits !hits;
  Obs.Counter.add c_intern_misses (!ndesc - !hits);
  Obs.Counter.add c_blocks_split !nsplit

(* Per-round latency feeds the "cover.refine.round" histogram; with the
   sink off [Hist.timed] is a direct call, so the refinement loop pays
   one atomic read per round and nothing else. *)
let engine_round eng r = Ld_obs.Hist.timed h_round (fun () -> engine_round_body eng r)

(* Internal ids densified by first occurrence in node order, so labels
   do not depend on which sub-block kept its parent's id. [stamp] must be
   unused by earlier relabel passes on this engine; round numbers are. *)
let engine_dense eng stamp =
  let n = eng.n in
  let out = Array.make n 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let b = eng.ids.(v) in
    if eng.dense_stamp.(b) <> stamp then begin
      eng.dense_stamp.(b) <- stamp;
      eng.dense_map.(b) <- !k;
      incr k
    end;
    out.(v) <- eng.dense_map.(b)
  done;
  out

let refine_side side ~rounds =
  let n = Darts.n side.darts in
  let history = Array.make (rounds + 1) [||] in
  history.(0) <- Array.make n 0;
  if n > 0 && rounds > 0 then begin
    let eng = engine_create side no_side in
    let stable = ref false in
    for r = 1 to rounds do
      if !stable then begin
        (* Refinement only ever splits classes, so once a round splits
           nothing every later round relabels identically: share the
           stabilised array instead of recomputing it. *)
        Obs.Counter.incr c_rounds_skipped;
        history.(r) <- history.(r - 1)
      end
      else begin
        engine_round eng r;
        if eng.split_last_round then history.(r) <- engine_dense eng r
        else begin
          stable := true;
          history.(r) <- history.(r - 1)
        end
      end
    done
  end;
  history

let refine_ec g ~rounds =
  Obs.with_span "cover.refine.ec" (fun () -> refine_side (ec_side g) ~rounds)

let refine_po g ~rounds =
  Obs.with_span "cover.refine.po" (fun () -> refine_side (po_side g) ~rounds)

let check_node who g u =
  if u < 0 || u >= Ec.n g then
    invalid_arg
      (Printf.sprintf "Refinement.%s: node %d is not in 0 .. %d" who u (Ec.n g - 1))

(* Cross-graph queries need no label history at all: [u] of [g] and [v]
   of [h] are round-r equivalent iff they sit in the same block after r
   rounds over the disjoint union, and blocks never merge — so the scan
   stops early both on divergence (the answer is No forever) and on
   stabilisation (the current answer holds forever). The engine reads
   the two graphs' runs and one copy of their dart tables; the union
   graph is never built. *)
let first_split g u h v ~max_radius =
  if max_radius < 1 then None
  else begin
    let eng = engine_create (ec_side g) (ec_side h) in
    let v = Ec.n g + v in
    let r = ref 1 and answer = ref None and scanning = ref true in
    while !scanning do
      engine_round eng !r;
      if eng.ids.(u) <> eng.ids.(v) then begin
        answer := Some !r;
        scanning := false
      end
      else if (not eng.split_last_round) || !r >= max_radius then
        scanning := false
      else incr r
    done;
    !answer
  end

let equivalent_radius g u h v ~radius =
  check_node "equivalent_radius" g u;
  check_node "equivalent_radius" h v;
  Obs.with_span "cover.refine.equivalent_radius" (fun () ->
      Option.is_none (first_split g u h v ~max_radius:radius))

let first_distinguishing_radius g u h v ~max_radius =
  check_node "first_distinguishing_radius" g u;
  check_node "first_distinguishing_radius" h v;
  first_split g u h v ~max_radius

(* Refine to a fixpoint: iterate until a round splits nothing. Each
   splitting round grows the block count, so this terminates within n
   rounds. *)
let stable_side side =
  if Darts.n side.darts = 0 then [||]
  else begin
    let eng = engine_create side no_side in
    let r = ref 1 and scanning = ref true in
    while !scanning do
      engine_round eng !r;
      if eng.split_last_round then incr r else scanning := false
    done;
    engine_dense eng (!r + 1)
  end

let stable_partition_ec g =
  Obs.with_span "cover.refine.stable_partition" (fun () ->
      stable_side (ec_side g))

let stable_partition_po g =
  Obs.with_span "cover.refine.stable_partition" (fun () ->
      stable_side (po_side g))
