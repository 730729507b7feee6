module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Darts
module Obs = Ld_obs.Obs

type history = int array array

(* Metrics of the partition-refinement path (DESIGN.md § Observability):
   rounds actually computed vs skipped by the stabilisation early-exit,
   block split events, and the interning behaviour inside splits.
   [descriptors_sorted] counts per-node descriptor sorts and therefore
   stays at zero on the default path — only the reference oracle sorts;
   CI guards on exactly that. *)
let c_rounds = Obs.Counter.make "cover.refine.rounds"
let c_rounds_skipped = Obs.Counter.make "cover.refine.rounds_skipped"
let c_descriptors = Obs.Counter.make "cover.refine.descriptors_sorted"
let c_intern_hits = Obs.Counter.make "cover.refine.intern_hits"
let c_intern_misses = Obs.Counter.make "cover.refine.intern_misses"
let c_blocks_split = Obs.Counter.make "cover.refine.blocks_split"
let h_round = Ld_obs.Hist.make "cover.refine.round"

(* Per-domain running totals, so a pool task (which runs entirely on one
   domain) can difference them around a row of work without racing the
   global atomics against sibling domains. *)
type domain_stats = {
  mutable s_rounds : int;
  mutable s_descriptors : int;
  mutable s_blocks_split : int;
}

let stats_key =
  Domain.DLS.new_key (fun () ->
      { s_rounds = 0; s_descriptors = 0; s_blocks_split = 0 })

module Stats = struct
  type t = { rounds : int; descriptors : int; blocks_split : int }

  let current () =
    let s = Domain.DLS.get stats_key in
    {
      rounds = s.s_rounds;
      descriptors = s.s_descriptors;
      blocks_split = s.s_blocks_split;
    }

  let since t0 =
    let t1 = current () in
    {
      rounds = t1.rounds - t0.rounds;
      descriptors = t1.descriptors - t0.descriptors;
      blocks_split = t1.blocks_split - t0.blocks_split;
    }
end

(* ------------------------------------------------------------------ *)
(* Reference path: refinement over per-node (key, other end) lists.
   Labels are interned per round so that equal labels mean structurally
   identical descriptors. Kept as the differential-testing oracle for
   the partition refinement below (exposed through [~reference:true]);
   it is the only path that sorts descriptors, which is what
   [descriptors_sorted] meters. *)

(* Lexicographic on int pairs: same order as the polymorphic compare the
   reference path historically used, so interned labels are unchanged. *)
let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let refine_reference (t : Darts.t) ~rounds =
  let n = Darts.n t in
  let darts v =
    List.init (t.row.(v + 1) - t.row.(v)) (fun i ->
        (t.key.(t.row.(v) + i), t.other.(t.row.(v) + i)))
  in
  let history = Array.make (rounds + 1) [||] in
  history.(0) <- Array.make n 0;
  for r = 1 to rounds do
    let prev = history.(r - 1) in
    let intern : ((int * (int * int) list), int) Hashtbl.t = Hashtbl.create (2 * n) in
    let next = Array.make n 0 in
    for v = 0 to n - 1 do
      let descriptor =
        ( prev.(v),
          List.sort pair_compare (List.map (fun (k, u) -> (k, prev.(u))) (darts v)) )
      in
      let label =
        match Hashtbl.find_opt intern descriptor with
        | Some l -> l
        | None ->
          let l = Hashtbl.length intern in
          Hashtbl.add intern descriptor l;
          l
      in
      next.(v) <- label
    done;
    history.(r) <- next;
    Obs.Counter.incr c_rounds;
    Obs.Counter.add c_descriptors n
  done;
  history

module Descriptor = struct
  type t = int array

  let equal (a : t) (b : t) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i =
      i >= la || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0

  (* FNV-1a over the ints, folded to a non-negative value. *)
  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193
    done;
    !h land max_int
end

module Intern = Hashtbl.Make (Descriptor)

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
   synchronous and the per-round partitions coincide label-for-label
   with the reference oracle after the dense relabelling pass. *)

type engine = {
  t : Darts.t;
  n : int;
  stride : int; (* n + 1: labels fit under it, codes pack as key * stride + label *)
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
     or by group index, both bounded by fn). *)
  gidx : int array;
  member : int array;
  gcount : int array;
  gstart : int array;
  gfill : int array;
  dense_map : int array; (* internal id -> dense label, per relabel pass *)
  dense_stamp : int array;
  mutable split_last_round : bool;
}

(* Keys are below 2^31 (see [Darts]), so with [stride <= 2^31] every
   packed code [key * stride + label] is below 2^62 and fits an int. *)
let engine_create t =
  let n = Darts.n t in
  if n + 1 > 1 lsl 31 then invalid_arg "Refinement: more than 2^31 - 1 nodes";
  let sz = Stdlib.max 1 n in
  {
    t;
    n;
    stride = n + 1;
    ids = Array.make sz 0;
    ids_prev = Array.make sz 0;
    elems = Array.init sz (fun i -> i);
    blk_start = Array.make sz 0;
    blk_len = (let a = Array.make sz 0 in a.(0) <- n; a);
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
    dense_map = Array.make sz 0;
    dense_stamp = Array.make sz (-1);
    split_last_round = false;
  }

(* One refinement round. [r] must increase strictly across calls on the
   same engine (it doubles as the dirty stamp). *)
let engine_round_body eng r =
  let n = eng.n in
  let { Darts.row; key; other; _ } = eng.t in
  let stride = eng.stride in
  Array.blit eng.ids 0 eng.ids_prev 0 n;
  let prev = eng.ids_prev in
  (* Collect the blocks whose members' descriptors may have changed:
     blocks of changed nodes and blocks of their neighbours. Members of
     a split's largest part kept their id, so neither their own blocks
     nor their neighbours' read any different id value — they stay
     clean, which is exactly the smaller-half discipline. *)
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
      for d = row.(v) to row.(v + 1) - 1 do
        mark prev.(other.(d))
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
      let intern = Intern.create 16 in
      let ngroups = ref 0 in
      (* Group members by descriptor. Within a block all previous ids
         are equal, so the descriptor is just the dart codes in the
         segment's fixed key-ascending order — already canonical. *)
      for i = 0 to len - 1 do
        let v = eng.elems.(s + i) in
        let lo = row.(v) in
        let deg = row.(v + 1) - lo in
        let descr = Array.make deg 0 in
        for d = 0 to deg - 1 do
          descr.(d) <-
            (Array.unsafe_get key (lo + d) * stride)
            + Array.unsafe_get prev (Array.unsafe_get other (lo + d))
        done;
        incr ndesc;
        let g =
          match Intern.find_opt intern descr with
          | Some g ->
            incr hits;
            g
          | None ->
            let g = !ngroups in
            Intern.add intern descr g;
            incr ngroups;
            g
        in
        eng.gidx.(i) <- g;
        eng.gcount.(g) <- eng.gcount.(g) + 1
      done;
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
        Array.blit eng.elems s eng.member 0 len;
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
  Obs.Counter.add c_blocks_split !nsplit;
  let ds = Domain.DLS.get stats_key in
  ds.s_rounds <- ds.s_rounds + 1;
  ds.s_descriptors <- ds.s_descriptors + !ndesc;
  ds.s_blocks_split <- ds.s_blocks_split + !nsplit

(* Per-round latency feeds the "cover.refine.round" histogram; with the
   sink off [Hist.timed] is a direct call, so the refinement loop pays
   one atomic read per round and nothing else. *)
let engine_round eng r = Ld_obs.Hist.timed h_round (fun () -> engine_round_body eng r)

(* Internal ids densified by first occurrence in node order — exactly
   the label discipline of the reference oracle, so histories match
   label-for-label, not merely partition-for-partition. [stamp] must be
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

let refine_darts t ~rounds =
  let n = Darts.n t in
  let history = Array.make (rounds + 1) [||] in
  history.(0) <- Array.make n 0;
  if n > 0 && rounds > 0 then begin
    let eng = engine_create t in
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

let refine name t ~reference ~rounds =
  if reference then refine_reference t ~rounds
  else Obs.with_span name (fun () -> refine_darts t ~rounds)

let refine_ec ?(reference = false) g ~rounds =
  refine "cover.refine.ec" (Ec.csr g) ~reference ~rounds

let refine_po ?(reference = false) g ~rounds =
  refine "cover.refine.po" (Po.csr g) ~reference ~rounds

(* Equivalence queries need no label history at all: two nodes are
   round-r equivalent iff they sit in the same block after r rounds, and
   blocks never merge — so the scan can stop early both on divergence
   (answer is No forever) and on stabilisation (answer is the current
   one forever). *)
let query_equivalent t u v ~radius =
  u = v
  || radius = 0
  ||
  let eng = engine_create t in
  let r = ref 1 and equal = ref true and scanning = ref true in
  while !scanning do
    engine_round eng !r;
    if eng.ids.(u) <> eng.ids.(v) then begin
      equal := false;
      scanning := false
    end
    else if (not eng.split_last_round) || !r >= radius then scanning := false
    else incr r
  done;
  !equal

let equivalent_radius g u h v ~radius =
  Obs.with_span "cover.refine.equivalent_radius" (fun () ->
      let union = Darts.union (Ec.csr g) (Ec.csr h) in
      query_equivalent union u (Ec.n g + v) ~radius)

let first_distinguishing_radius g u h v ~max_radius =
  let union = Darts.union (Ec.csr g) (Ec.csr h) in
  let v = Ec.n g + v in
  if u = v || max_radius < 1 then None
  else begin
    let eng = engine_create union in
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

(* Refine to a fixpoint: iterate until a round splits nothing. Each
   splitting round grows the block count, so this terminates within n
   rounds. *)
let stable_darts t =
  if Darts.n t = 0 then [||]
  else begin
    let eng = engine_create t in
    let r = ref 1 and scanning = ref true in
    while !scanning do
      engine_round eng !r;
      if eng.split_last_round then incr r else scanning := false
    done;
    engine_dense eng (!r + 1)
  end

let stable_partition_ec g =
  Obs.with_span "cover.refine.stable_partition" (fun () ->
      stable_darts (Ec.csr g))

let stable_partition_po g =
  Obs.with_span "cover.refine.stable_partition" (fun () ->
      stable_darts (Po.csr g))
