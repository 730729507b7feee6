(* thm1-cold and thm1-warm: certify Theorem 1 for delta = 2 ..
   Metrics.thm1_max_delta, rows in sequence. A row builds the
   construction with Cache_store.build_cache (the Section 4 adversary
   against greedy-by-colour) and scans the frontier with
   truncated_verdict. Cold rows run the adversary with no store; warm
   rows reload it from a store written during set-up.

   A cold sweep runs in a fresh child process: the view arena and the
   interning tables persist within a process, so a second sweep in the
   same process is no longer cold (three Δ ≤ 14 sweeps in one process
   took 0.68, 0.59 and 0.57 s on a 2-vCPU Xeon guest). *)

module LB = Ld_core.Lower_bound
module Cache_store = Ld_core.Cache_store
module Store = Ld_store.Store
module Pool = Ld_pool.Pool
module Obs = Ld_obs.Obs
module Json = Ld_obs.Json
open Harness

let algo = Ld_matching.Packing.greedy_algorithm
let max_delta ctx = if ctx.toy then 6 else Metrics.thm1_max_delta
let deltas m = List.init (m - 1) (fun i -> i + 2)

(* (certified levels, frontier): the smallest truncation the adversary
   cannot refute, -1 if none up to 2Δ+2. *)
let verdict cache delta =
  let levels =
    match LB.cache_outcome cache with
    | LB.Certified certs -> List.length certs
    | LB.Refuted _ -> -1
  in
  let rec scan r =
    if r > (2 * delta) + 2 then -1
    else
      match LB.truncated_verdict cache ~rounds:r with
      | `Certified -> r
      | `Refuted -> scan (r + 1)
  in
  (levels, scan 0)

let certify_row ?store delta =
  verdict (Cache_store.build_cache ?store ~delta algo) delta

let check_row ~workload (delta, (levels, frontier)) =
  check
    (Printf.sprintf "%s delta=%d: %d certified levels, expected %d" workload
       delta levels (delta - 1))
    (levels = delta - 1);
  check
    (Printf.sprintf "%s delta=%d: frontier %d, expected %d" workload delta
       frontier delta)
    (frontier = delta)

(* A sweep's rows: (delta, verdict, wall seconds). *)
type sweep = { rows : (int * (int * int) * float) list; scale : float }

let sweep_s sw = sw.scale *. sum (List.map (fun (_, _, s) -> s) sw.rows)

let row_median sweeps delta =
  median
    (List.map
       (fun sw ->
         match List.find_opt (fun (d, _, _) -> d = delta) sw.rows with
         | Some (_, _, s) -> sw.scale *. s
         | None -> failwith "sweeps disagree on their rows")
       sweeps)

(* Per-delta medians, as rows `ld bench-diff` joins on (workload, delta). *)
let add_rows ~workload ~domains sweeps =
  match sweeps with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun (delta, _, _) ->
        add_row
          [
            ("workload", str workload);
            ("delta", int delta);
            ("domains", int domains);
            ("wall_ms", num (1000. *. row_median sweeps delta));
          ])
      first.rows

(* Raw row times of the cost-carrying rows (absent at toy size). *)
let set_row_metrics sweeps =
  List.iter
    (fun delta ->
      let walls =
        List.filter_map
          (fun sw -> List.find_map (fun (d, _, s) -> if d = delta then Some s else None) sw.rows)
          sweeps
      in
      if walls <> [] then set (Metrics.row_metric delta) (median walls))
    Metrics.row_deltas

(* Each named value's median over several units. *)
let set_medians (per_unit : (string * float) list list) =
  match per_unit with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun (name, _) ->
        set name (median (List.map (fun kvs -> List.assoc name kvs) per_unit)))
      first

let overhead ~traced ~untraced =
  set "obs.trace_overhead_frac" ((median traced /. median untraced) -. 1.)

(* ---- thm1-cold ---- *)

(* Child: one cold sweep, each row timed around the public calls inside
   a [bench.row] span. With a [chrome] path the sink is on, the report
   carries Ld_obs.Summary.to_json and the Chrome trace goes to the path. *)
let sweep_child ~max_delta ~chrome =
  let obs = Option.is_some chrome in
  if obs then Obs.enable ();
  let g0 = gc_now () in
  let rows =
    List.map
      (fun delta ->
        let (levels, frontier), s =
          timed (fun () ->
              Obs.with_span
                ~args:[ ("delta", string_of_int delta) ]
                "bench.row"
                (fun () -> certify_row delta))
        in
        Json.Obj
          [
            ("delta", int delta);
            ("levels", int levels);
            ("frontier", int frontier);
            ("wall_s", num s);
          ])
      (deltas max_delta)
  in
  let gc = gc_since g0 in
  let peak = peak_rss_mb () in
  (* calibrated after the sweep, which therefore starts on a fresh heap *)
  let scale = cal_ref_s /. ((kernel () +. kernel ()) /. 2.) in
  Option.iter (fun path -> Ld_obs.Trace.write ~path) chrome;
  Json.Obj
    ([
       ("rows", Json.Arr rows);
       ("scale", num scale);
       ("peak_rss_mb", num peak);
       ("gc", gc_to_json gc);
     ]
    @
    if obs then [ ("summary", Json.parse (Ld_obs.Summary.to_json ())) ] else [])

let span_value summary name key =
  match
    List.find_opt
      (fun s ->
        match Json.member "name" s with
        | Some (Json.Str n) -> String.equal n name
        | _ -> false)
      (list_field "spans" summary)
  with
  | Some s -> float_field key s
  | None -> 0.

let counter_value summary name =
  match Json.member name (field "counters" summary) with
  | Some (Json.Num f) -> f
  | _ -> 0.

(* The adversary's layers, read off one traced child's summary. *)
let adversary_layers summary =
  let total name = span_value summary name "total_ms" in
  let self name = span_value summary name "self_ms" in
  let count = counter_value summary in
  let hits = count "cover.refine.intern_hits" in
  let lookups = hits +. count "cover.refine.intern_misses" in
  [
    ("lb.probe_ms", total "core.lb.probe");
    ("matching.greedy_self_ms", self "matching.packing.greedy");
    ("runtime.ec_run_self_ms", self "runtime.ec.run");
    ("runtime.ec_rounds", count "runtime.ec.rounds");
    ("runtime.ec_darts_scanned", count "runtime.ec.darts_scanned");
    ("runtime.ec_sends", count "runtime.ec.sends");
    ("lb.unfold_ms", total "core.lb.unfold");
    ("lb.mix_ms", total "core.lb.mix");
    ("lb.level_self_ms", self "core.lb.level");
    ("cover.views_ms", total "core.lb.views");
    ("cover.refine_rounds", count "cover.refine.rounds");
    ("cover.intern_lookups", lookups);
    ("cover.intern_hit_ratio", if lookups > 0. then hits /. lookups else 0.);
    ("fm.feasibility_ms", total "fm.check.feasibility");
    ("lb.frontier_verdict_ms", total "core.lb.frontier_verdict");
  ]

(* The domain pool's layers; they exist only when a map has workers. *)
let pool_layers summary =
  [
    ("pool.workers_spawned", counter_value summary "core.pool.workers_spawned");
    ("pool.join_idle_ms", span_value summary "core.pool.join" "total_ms");
    ("pool.map_self_ms", span_value summary "core.pool.map" "self_ms");
  ]

let cold ctx =
  let m = max_delta ctx in
  let chrome = Filename.concat state_dir "traces/thm1-cold.json" in
  let sweep ~domains ~obs =
    let report, _ =
      run_child ~domains ([ "sweep"; string_of_int m ] @ if obs then [ chrome ] else [])
    in
    let scale = float_field "scale" report in
    let rows =
      List.map
        (fun r ->
          ( int_field "delta" r,
            (int_field "levels" r, int_field "frontier" r),
            float_field "wall_s" r ))
        (list_field "rows" report)
    in
    List.iter (fun (d, v, _) -> check_row ~workload:ctx.workload (d, v)) rows;
    ({ rows; scale }, report)
  in
  if not ctx.trace then begin
    (* Set-up is what a cold certifier pays before its first row: a
       fresh process, the OCaml runtime and every library initialiser.
       The started child times the calibration kernel itself, so the
       scale describes the process whose start-up was measured. *)
    let starts =
      List.init 9 (fun _ ->
          let report, wall = run_child [ "start" ] in
          let k = float_field "kernel_s" report in
          (wall -. k) *. (cal_ref_s /. k))
    in
    let sweeps =
      repeat ~seconds:ctx.seconds ~min_units:5 (fun _ -> sweep ~domains:1 ~obs:false)
    in
    sample "setup_s" starts;
    sample "work_s" (List.map (fun (sw, _) -> sweep_s sw) sweeps);
    sample "scale" (List.map (fun (sw, _) -> sw.scale) sweeps);
    set "setup_s" (median starts);
    set "work_s" (median (List.map (fun (sw, _) -> sweep_s sw) sweeps));
    set "peak_rss_mb"
      (median (List.map (fun (_, r) -> float_field "peak_rss_mb" r) sweeps));
    add_rows ~workload:ctx.workload ~domains:1 (List.map fst sweeps)
  end
  else begin
    mkdir_p (Filename.dirname chrome);
    (* Layers come from traced 1-domain sweeps, the configuration work_s
       measures; the pool's from traced 2-domain sweeps. *)
    let units =
      repeat ~seconds:ctx.seconds ~min_units:2 (fun i ->
          rotated i
            [
              (fun () -> sweep ~domains:1 ~obs:false);
              (fun () -> sweep ~domains:1 ~obs:true);
              (fun () -> sweep ~domains:2 ~obs:false);
              (fun () -> sweep ~domains:2 ~obs:true);
            ])
    in
    let nth k = List.map (fun u -> List.nth u k) units in
    let plain1 = nth 0 and traced1 = nth 1 and plain2 = nth 2 and traced2 = nth 3 in
    let times l = List.map (fun (sw, _) -> sweep_s sw) l in
    let summaries l = List.map (fun (_, r) -> field "summary" r) l in
    set_medians (List.map adversary_layers (summaries traced1));
    set_medians (List.map pool_layers (summaries traced2));
    set_row_metrics (List.map fst traced1);
    set_gc
      (List.map
         (fun (_, r) ->
           let g = field "gc" r in
           {
             minor = 1e6 *. float_field "minor_mwords" g;
             promoted = 1e6 *. float_field "promoted_mwords" g;
             majors = int_field "major_collections" g;
             top_heap_mb = float_field "top_heap_mb" g;
           })
         traced1);
    overhead ~traced:(times traced1) ~untraced:(times plain1);
    set "par.speedup_2way" (median (times plain1) /. median (times plain2));
    add_rows ~workload:ctx.workload ~domains:1 (List.map fst plain1)
  end

(* ---- thm1-warm ---- *)

let entries cache =
  match LB.cache_outcome cache with
  | LB.Refuted _ -> []
  | LB.Certified certs ->
    List.map
      (fun (c : LB.certificate) ->
        {
          Cache_store.entry_level = c.level;
          entry_certificate = c;
          entry_probes =
            List.filter
              (fun (p : LB.probe) -> p.probe_level = c.level)
              (LB.cache_probes cache);
        })
      certs

let level_digests cache =
  List.map
    (fun e -> Digest.to_hex (Digest.string (Cache_store.entry_to_string e)))
    (entries cache)

(* Child: the warm workload's set-up — build every construction cold
   and save it into a fresh store at [dir], timing the two calls
   separately. Reports each level's record digest for the warm checks. *)
let build_store_child ~max_delta ~dir =
  let built, wall_s, scale =
    scaled @@ fun () ->
    let store = Store.open_store ~dir () in
    List.map
      (fun delta ->
        let cache, build_s = timed (fun () -> LB.build_cache ~delta algo) in
        let saved, save_s = timed (fun () -> Cache_store.save_cache store cache) in
        (delta, build_s, save_s, saved, level_digests cache))
      (deltas max_delta)
  in
  Json.Obj
    [
      ("setup_s", num (scale *. wall_s));
      ("build_ms", num (1000. *. sum (List.map (fun (_, b, _, _, _) -> b) built)));
      ("save_ms", num (1000. *. sum (List.map (fun (_, _, s, _, _) -> s) built)));
      ("saved", Json.Bool (List.for_all (fun (_, _, _, ok, _) -> ok) built));
      ("bytes_written", int (tree_bytes dir));
      ( "digests",
        Json.Obj
          (List.map
             (fun (delta, _, _, _, ds) ->
               (string_of_int delta, Json.Arr (List.map str ds)))
             built) );
    ]

let digests_of report =
  match field "digests" report with
  | Json.Obj kvs ->
    List.map
      (fun (delta, ds) ->
        ( int_of_string delta,
          List.map
            (function Json.Str s -> s | _ -> failwith "bad digest")
            (Option.value ~default:[] (Json.to_list ds)) ))
      kvs
  | _ -> failwith "bad digests field"

let same_digests a b =
  List.equal
    (fun (d1, l1) (d2, l2) -> d1 = d2 && List.equal String.equal l1 l2)
    a b

let key ~delta ~level =
  Cache_store.key ~delta ~level ~algo:algo.name ~check_views:true

(* A warm row timed from outside around the calls Cache_store.load_cache
   makes: Store.get, entry_of_string, then LB.assemble_cache; then the
   frontier scan. Returns the row verdict and per-layer milliseconds. *)
let traced_row store delta =
  let get = ref 0. and bytes = ref 0 and decode = ref 0. in
  let fetched =
    List.init (delta - 1) (fun level ->
        let payload, s = timed (fun () -> Store.get store ~key:(key ~delta ~level)) in
        get := !get +. s;
        match payload with
        | None ->
          check (Printf.sprintf "thm1-warm delta=%d level=%d: store miss" delta level) false;
          None
        | Some p ->
          bytes := !bytes + String.length p;
          let e, s = timed (fun () -> Cache_store.entry_of_string p) in
          decode := !decode +. s;
          check
            (Printf.sprintf "thm1-warm delta=%d: record level %d" delta level)
            (e.Cache_store.entry_level = level);
          Some e)
  in
  let es = List.filter_map Fun.id fetched in
  let cache, assemble =
    timed (fun () ->
        LB.assemble_cache ~delta ~algo_name:algo.name ~check_views:true
          ~probes:(List.concat_map (fun e -> e.Cache_store.entry_probes) es)
          ~outcome:(LB.Certified (List.map (fun e -> e.Cache_store.entry_certificate) es)))
  in
  let v, scan = timed (fun () -> verdict cache delta) in
  ( v,
    [
      ("store.get_ms", 1000. *. !get);
      ("store.bytes_read", float_of_int !bytes);
      ("codec.decode_ms", 1000. *. !decode);
      ("lb.assemble_ms", 1000. *. assemble);
      ("lb.frontier_verdict_ms", 1000. *. scan);
    ] )

type warm_unit =
  | Plain of sweep * gc
  | Traced of sweep * gc * (string * float) list
  | Par of sweep

let warm ctx =
  let m = max_delta ctx in
  (* largest first, which also balances the 2-domain sweep *)
  let ds = List.rev (deltas m) in
  let setups =
    List.init (if ctx.trace then 1 else 3) (fun i ->
        let dir = Filename.concat ctx.scratch (Printf.sprintf "store%d" i) in
        let report, _ = run_child [ "build-store"; string_of_int m; dir ] in
        check "thm1-warm set-up saved every construction"
          (match Json.member "saved" report with
          | Some (Json.Bool saved) -> saved
          | _ -> false);
        (dir, report, float_field "setup_s" report))
  in
  let dir, reference =
    match setups with
    | (dir, r, _) :: _ -> (dir, digests_of r)
    | [] -> assert false
  in
  List.iter
    (fun (d, r, _) ->
      check "thm1-warm set-ups wrote identical records"
        (same_digests (digests_of r) reference);
      if not (String.equal d dir) then rm_rf d)
    setups;
  List.iter
    (fun (delta, levels) ->
      check
        (Printf.sprintf "thm1-warm delta=%d: %d level records" delta (List.length levels))
        (List.length levels = delta - 1))
    reference;
  let setup_median k = median (List.map (fun (_, r, _) -> float_field k r) setups) in
  set "lb.build_ms" (setup_median "build_ms");
  set "store.save_ms" (setup_median "save_ms");
  set "store.bytes_written" (setup_median "bytes_written");
  let store = Store.open_store ~dir () in
  List.iter
    (fun delta ->
      for level = 0 to delta - 2 do
        check
          (Printf.sprintf "thm1-warm delta=%d level=%d stored" delta level)
          (Store.mem store ~key:(key ~delta ~level))
      done)
    ds;
  let resettable = reset_peak_rss () in
  if not resettable then note whole_process_rss_note;
  let timed_rows f =
    let g0 = gc_now () in
    let rows, _, scale = scaled f in
    ({ rows; scale }, gc_since g0)
  in
  let plain () =
    let sw, gc =
      timed_rows (fun () ->
          List.map
            (fun delta ->
              let v, s = timed (fun () -> certify_row ~store delta) in
              (delta, v, s))
            ds)
    in
    Plain (sw, gc)
  in
  let traced () =
    Obs.reset ();
    Obs.enable ();
    let parts = ref [] in
    let sw, gc =
      timed_rows (fun () ->
          List.map
            (fun delta ->
              let (v, p), s = timed (fun () -> traced_row store delta) in
              parts := p :: !parts;
              (delta, v, s))
            ds)
    in
    Obs.disable ();
    let total =
      List.map
        (fun (name, _) -> (name, sum (List.map (List.assoc name) !parts)))
        (List.hd !parts)
    in
    Traced (sw, gc, total)
  in
  let par () =
    let rows, _, scale =
      scaled (fun () ->
          Pool.map ~domains:2
            (fun delta ->
              let v, s = timed (fun () -> certify_row ~store delta) in
              (delta, v, s))
            ds)
    in
    Par { rows; scale }
  in
  let units =
    if ctx.trace then
      repeat ~seconds:ctx.seconds ~min_units:2 (fun i -> rotated i [ plain; traced; par ])
    else repeat ~seconds:ctx.seconds ~min_units:5 (fun _ -> [ plain () ])
  in
  let peak = peak_rss_mb () in
  let all = List.concat units in
  let plains = List.filter_map (function Plain (sw, _) -> Some sw | _ -> None) all in
  let traceds =
    List.filter_map (function Traced (sw, g, p) -> Some (sw, g, p) | _ -> None) all
  in
  let pars = List.filter_map (function Par sw -> Some sw | _ -> None) all in
  List.iter
    (fun sw -> List.iter (fun (d, v, _) -> check_row ~workload:ctx.workload (d, v)) sw.rows)
    (plains @ pars @ List.map (fun (sw, _, _) -> sw) traceds);
  let plain_s = List.map sweep_s plains in
  if ctx.trace then begin
    let traced_s = List.map (fun (sw, _, _) -> sweep_s sw) traceds in
    set_medians (List.map (fun (_, _, p) -> p) traceds);
    set_gc (List.map (fun (_, g, _) -> g) traceds);
    set_row_metrics (List.map (fun (sw, _, _) -> sw) traceds);
    overhead ~traced:traced_s ~untraced:plain_s;
    set "par.speedup_2way" (median plain_s /. median (List.map sweep_s pars));
    (* The outside timers should account for the whole sweep. *)
    let parts_s =
      median
        (List.map
           (fun (sw, _, p) ->
             sw.scale
             *. List.fold_left
                  (fun acc (name, v) ->
                    if String.equal name "store.bytes_read" then acc else acc +. (v /. 1000.))
                  0. p)
           traceds)
    in
    note
      (Printf.sprintf "layer parts cover %.1f%% of the traced warm sweep"
         (100. *. parts_s /. median traced_s));
    write_trace ctx
  end
  else begin
    let setup_s = List.map (fun (_, _, w) -> w) setups in
    sample "setup_s" setup_s;
    sample "work_s" plain_s;
    sample "scale" (List.map (fun sw -> sw.scale) plains);
    set "setup_s" (median setup_s);
    set "work_s" (median plain_s);
    set "peak_rss_mb" peak
  end;
  add_rows ~workload:ctx.workload ~domains:1 plains;
  (* Outside the timed window: every reloaded level must serialise to
     the record the cold set-up built. *)
  List.iter
    (fun (delta, expected) ->
      match Cache_store.load_cache store ~check_views:true ~delta ~algo_name:algo.name with
      | None -> check (Printf.sprintf "thm1-warm delta=%d reloads" delta) false
      | Some cache ->
        check
          (Printf.sprintf "thm1-warm delta=%d: reloaded records match set-up" delta)
          (List.equal String.equal (level_digests cache) expected))
    reference
