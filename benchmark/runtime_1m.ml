(* runtime-1m: the packed executor and the mega-scale matching machines
   on the (3, 8)-biregular tree with 10^6 nodes. A pass runs the legs
   of Metrics.legs in order; the coin streams of Israeli–Itai and
   Davies–Peck are seeded from --seed and the pass. Panconesi–Rizzi keeps 5+5Δ
   state words per node, and one run at 10^6 nodes takes seconds, too
   long to repeat within a run, so it runs on the tree's first 10^5
   nodes (a BFS prefix of the same tree). Neither the adversary nor the
   store is used. *)

module Gen = Ld_graph.Generators
module Packed = Ld_runtime.Packed
module Packed_ii = Ld_matching.Packed_ii
module Packed_pr = Ld_matching.Packed_pr
module Davies_peck = Ld_matching.Davies_peck
module Hist = Ld_obs.Hist
module Obs = Ld_obs.Obs
open Harness

let max_rounds = 100_000

(* The executors' own per-round histogram, reset around each leg. *)
let h_round = Hist.make "runtime.packed.round"

let size ctx = if ctx.toy then 10_000 else 1_000_000

let generate n =
  (Gen.stream_biregular_tree ~d:3 ~delta:8 n, Gen.stream_biregular_tree ~d:3 ~delta:8 (n / 10))

let run_algo ~seed algo ~domains g =
  match algo with
  | `Ii -> Packed_ii.run ~domains ~seed ~max_rounds g
  | `Dp ->
    let r, stats = Davies_peck.run ~domains ~seed ~max_rounds g in
    ({ Packed_ii.mate = r.Davies_peck.mate; rounds = r.Davies_peck.rounds }, stats)
  | `Pr ->
    let r, stats = Packed_pr.run ~domains g in
    ({ Packed_ii.mate = r.Packed_pr.mate; rounds = r.Packed_pr.rounds }, stats)

type leg = {
  name : string;
  n : int;
  domains : int;
  wall_s : float;  (** as measured *)
  scale : float;  (** to the reference machine, see Harness.scaled *)
  rounds : int;
  sends : int;
  mate : int array;
  peak_mb : float;
  round_p50_ms : float;
  round_p99_ms : float;
}

let run_leg ~seed (tree, prefix) ~traced (name, algo, graph, domains) =
  let g = match graph with `Tree -> tree | `Prefix -> prefix in
  Hist.reset h_round;
  let resettable = reset_peak_rss () in
  let (r, stats), wall_s, scale = scaled (fun () -> run_algo ~seed algo ~domains g) in
  let peak_mb = peak_rss_mb () in
  if not resettable then note whole_process_rss_note;
  check (Printf.sprintf "runtime-1m %s: maximal matching" name) (Packed_ii.is_maximal g r);
  let sn = Hist.snapshot h_round in
  {
    name;
    n = g.Ld_graph.Csr.n;
    domains;
    wall_s;
    scale;
    rounds = r.Packed_ii.rounds;
    sends = stats.Packed.sends;
    mate = r.Packed_ii.mate;
    peak_mb;
    round_p50_ms = (if traced then Hist.quantile_ms sn 0.5 else 0.);
    round_p99_ms = (if traced then Hist.quantile_ms sn 0.99 else 0.);
  }

let leg pass name = List.find (fun l -> String.equal l.name name) pass

(* A pass runs every leg once, then checks that the 2-domain run found
   the same matching as the 1-domain run of the same input. Pass [i]
   draws its coins from its own seed: the rounds Israeli–Itai and
   Davies–Peck need vary with the coins, and a run's median over
   passes then covers several draws instead of one. *)
let run_pass ctx graphs ~traced i =
  let seed = (ctx.seed * 1_000) + i in
  if traced then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let g0 = gc_now () in
  let pass = List.map (run_leg ~seed graphs ~traced) Metrics.legs in
  let gc = gc_since g0 in
  Obs.disable ();
  let one = leg pass "ii_tree" and two = leg pass "ii_tree_2" in
  check "runtime-1m ii_tree: 2-domain mates equal 1-domain mates"
    (one.rounds = two.rounds
    && Array.length one.mate = Array.length two.mate
    && Array.for_all2 Int.equal one.mate two.mate);
  (List.map (fun l -> { l with mate = [||] }) pass, gc)

let leg_values passes name f = List.map (fun p -> f (leg p name)) passes
let leg_median passes name f = median (leg_values passes name f)
let scaled_s l = l.scale *. l.wall_s

(* The 1-domain legs' time, each leg at its median over the passes. *)
let match_s passes =
  sum
    (List.filter_map
       (fun (name, _, _, domains) ->
         if domains = 1 then Some (leg_median passes name scaled_s) else None)
       Metrics.legs)

let run ctx =
  let setup () =
    let graphs, wall, scale = scaled (fun () -> generate (size ctx)) in
    (graphs, (wall, scale *. wall))
  in
  (* set-up runs five times; the legs use the first one's graphs *)
  let graphs, first = setup () in
  let setups = first :: List.init (if ctx.trace then 0 else 4) (fun _ -> snd (setup ())) in
  let plain i = fst (run_pass ctx graphs ~traced:false i) in
  let units =
    if ctx.trace then
      repeat ~seconds:ctx.seconds ~min_units:2 (fun i ->
          let p = ref [] and t = ref None in
          ignore
            (rotated i
               [ (fun () -> p := plain i); (fun () -> t := Some (run_pass ctx graphs ~traced:true i)) ]);
          (!p, !t))
    else repeat ~seconds:ctx.seconds ~min_units:3 (fun i -> (plain i, None))
  in
  let plain = List.map fst units in
  if ctx.trace then begin
    let traced = List.filter_map snd units in
    let passes = List.map fst traced in
    set "graph.gen_tree_ms" (1000. *. median (List.map fst setups));
    List.iter
      (fun name ->
        let m f = leg_median passes name f in
        set ("matching." ^ name ^ "_ms") (m (fun l -> 1000. *. l.wall_s));
        set ("matching." ^ name ^ "_rounds") (m (fun l -> float_of_int l.rounds));
        set ("matching." ^ name ^ "_sends") (m (fun l -> float_of_int l.sends));
        set ("runtime.packed_round_p50_ms." ^ name) (m (fun l -> l.round_p50_ms));
        set ("runtime.packed_round_p99_ms." ^ name) (m (fun l -> l.round_p99_ms));
        set ("mem.leg_peak_rss_mb." ^ name) (m (fun l -> l.peak_mb)))
      Metrics.leg_names;
    set_gc (List.map snd traced);
    set "obs.trace_overhead_frac" ((match_s passes /. match_s plain) -. 1.);
    set "par.speedup_2way"
      (leg_median plain "ii_tree" scaled_s /. leg_median plain "ii_tree_2" scaled_s);
    write_trace ctx
  end
  else begin
    let setup_s = List.map snd setups in
    sample "setup_s" setup_s;
    List.iter
      (fun name ->
        sample (name ^ "_s") (leg_values plain name scaled_s);
        sample (name ^ "_scale") (leg_values plain name (fun l -> l.scale)))
      Metrics.leg_names;
    set "setup_s" (median setup_s);
    set "work_s" (match_s plain);
    set "peak_rss_mb"
      (median
         (List.map (fun p -> List.fold_left (fun acc l -> Float.max acc l.peak_mb) 0. p) plain))
  end;
  List.iter
    (fun name ->
      let m f = leg_median plain name f in
      let l = leg (List.hd plain) name in
      add_row
        [
          ("workload", str ctx.workload);
          ("algo", str name);
          ("n", int l.n);
          ("domains", int l.domains);
          ("wall_ms", num (m (fun l -> 1000. *. scaled_s l)));
          ("rounds", num (m (fun l -> float_of_int l.rounds)));
          ("sends", num (m (fun l -> float_of_int l.sends)));
        ])
    Metrics.leg_names
