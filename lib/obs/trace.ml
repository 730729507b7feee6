(* Span/counter names and arg strings are caller-supplied and may hold
   arbitrary bytes; [Json.render] escapes them to pure ASCII, so a
   hostile name can never produce an invalid trace.json. *)

(* Timestamps are microseconds in the trace-event spec; we keep
   nanosecond precision with a fractional part. *)
let us_of_ns ns = Int64.to_float ns /. 1e3

let args kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)

let thread_name tid =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.int 1);
      ("tid", Json.int tid);
      ("args", args [ ("name", Printf.sprintf "domain-%d" tid) ]);
    ]

let event (e : Obs.event) =
  Json.Obj
    ([
       ("name", Json.Str e.ev_name);
       ("cat", Json.Str "ld");
       ("ph", Json.Str (match e.ev_phase with Obs.B -> "B" | Obs.E -> "E"));
       ("ts", Json.Num (us_of_ns e.ev_ts));
       ("pid", Json.int 1);
       ("tid", Json.int e.ev_tid);
     ]
    @ match e.ev_args with [] -> [] | kvs -> [ ("args", args kvs) ])

let write ~path =
  if Obs.enabled () then begin
    let events = Obs.events () in
    let tids =
      List.sort_uniq Int.compare (List.map (fun e -> e.Obs.ev_tid) events)
    in
    Json.write_file path
      (Json.Obj
         [
           ("traceEvents", Json.Arr (List.map thread_name tids @ List.map event events));
           ("displayTimeUnit", Json.Str "ms");
           ( "ld_metrics",
             Json.Obj
               (List.map (fun (name, v) -> (name, Json.int v)) (Obs.counters ())) );
         ])
  end
