(* Counting per-tid events and `core.pool.task` spans gives the
   utilisation picture (tasks per domain) without opening the trace. *)
let per_domain () =
  let by_tid : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.event) ->
      let evs, tasks =
        match Hashtbl.find_opt by_tid e.ev_tid with
        | Some s -> s
        | None ->
          let s = (ref 0, ref 0) in
          Hashtbl.add by_tid e.ev_tid s;
          s
      in
      incr evs;
      if e.ev_phase = Obs.B && e.ev_name = "core.pool.task" then incr tasks)
    (Obs.events ());
  Hashtbl.fold (fun tid (evs, tasks) acc -> (tid, !evs, !tasks) :: acc) by_tid []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

(* Spans, counters, gauges and histogram quantiles as one JSON object,
   so scripts read `ld adversary --format json` without scraping text.
   Quantiles are in milliseconds, like the span totals; the OpenMetrics
   exposition is the place for base-unit seconds. *)
let json () =
  let ints kvs =
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if v <> 0 then Some (k, Json.int v) else None)
         kvs)
  in
  let span (name, (count, total, self)) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("count", Json.int count);
        ("total_ms", Json.Num total);
        ("self_ms", Json.Num self);
      ]
  in
  let hist (sn : Hist.snapshot) =
    let q p = Json.Num (Hist.quantile_ms sn p) in
    Json.Obj
      [
        ("name", Json.Str sn.sn_name);
        ("count", Json.int sn.sn_count);
        ("p50_ms", q 0.5);
        ("p90_ms", q 0.9);
        ("p99_ms", q 0.99);
        ("p999_ms", q 0.999);
        ("max_ms", Json.Num (Hist.max_ms sn));
        ("sum_ms", Json.Num (Hist.sum_ms sn));
      ]
  in
  let domain (tid, evs, tasks) =
    Json.Obj
      [
        ("tid", Json.int tid);
        ("events", Json.int evs);
        ("pool_tasks", Json.int tasks);
      ]
  in
  (* After a forced minor collection, [Gc.quick_stat] counts every
     domain's allocation. *)
  let gc =
    Gc.minor ();
    let st = Gc.quick_stat () in
    Json.Obj
      [
        ("minor_words", Json.Num st.minor_words);
        ("promoted_words", Json.Num st.promoted_words);
        ("major_collections", Json.int st.major_collections);
        ("top_heap_words", Json.int st.top_heap_words);
      ]
  in
  Json.Obj
    ([
       ("spans", Json.Arr (List.map span (Obs.span_totals ())));
       ("counters", ints (Obs.counters ()));
       ("gauges", ints (Obs.gauges ()));
       ("histograms", Json.Arr (List.map hist (Hist.snapshots ())));
       ("domains", Json.Arr (List.map domain (per_domain ())));
       ("gc", gc);
     ]
    @
    match Obs.peak_rss_kb () with
    | Some kb -> [ ("peak_rss_kb", Json.int kb) ]
    | None -> [])

let to_json () = Json.render (json ())
