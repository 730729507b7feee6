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

let pp fmt () =
  let spans = Obs.span_totals () in
  if spans <> [] then begin
    Format.fprintf fmt "@[<v>spans (execution order):@,";
    Format.fprintf fmt "  %-34s %8s %12s %12s %10s@," "name" "count" "total ms"
      "self ms" "mean us";
    List.iter
      (fun (name, (count, total, self)) ->
        Format.fprintf fmt "  %-34s %8d %12.3f %12.3f %10.1f@," name count total
          self
          (1000. *. total /. float_of_int count))
      spans;
    Format.fprintf fmt "@]"
  end;
  (match per_domain () with
  | [] | [ _ ] -> ()
  | domains ->
    Format.fprintf fmt "@[<v>domains:@,";
    List.iter
      (fun (tid, evs, tasks) ->
        Format.fprintf fmt "  domain-%-3d %6d events %6d pool tasks@," tid evs
          tasks)
      domains;
    Format.fprintf fmt "@]");
  let nonzero = List.filter (fun (_, v) -> v <> 0) (Obs.counters ()) in
  if nonzero <> [] then begin
    Format.fprintf fmt "@[<v>counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-42s %12d@," name v)
      nonzero;
    Format.fprintf fmt "@]"
  end

(* Merge the main buffer's spans by path: one tree line per distinct
   stack of names, in first-occurrence order. *)
let pp_tree fmt () =
  let events = Obs.events () in
  match events with
  | [] -> ()
  | first :: _ ->
    let main_tid = first.Obs.ev_tid in
    let order : string list list ref = ref [] in
    let totals : (string list, int ref * float ref) Hashtbl.t =
      Hashtbl.create 32
    in
    (* Paths are registered at span {e begin} so parents precede their
       children in the printed order; durations accumulate at end. *)
    let stack = ref [] in
    List.iter
      (fun (e : Obs.event) ->
        if e.ev_tid = main_tid then
          match e.ev_phase with
          | Obs.B ->
            let path =
              List.rev (e.ev_name :: List.map (fun (n, _, _) -> n) !stack)
            in
            if not (Hashtbl.mem totals path) then begin
              Hashtbl.add totals path (ref 0, ref 0.);
              order := path :: !order
            end;
            stack := (e.ev_name, e.ev_ts, path) :: !stack
          | Obs.E -> (
            match !stack with
            | [] -> ()
            | (_, t0, path) :: rest ->
              stack := rest;
              let count, total = Hashtbl.find totals path in
              incr count;
              total := !total +. (Int64.to_float (Int64.sub e.ev_ts t0) /. 1e6)))
      events;
    Format.fprintf fmt "@[<v>span tree (domain-%d):@," main_tid;
    List.iter
      (fun path ->
        let count, total = Hashtbl.find totals path in
        let depth = List.length path - 1 in
        Format.fprintf fmt "  %s%s  x%d  %.3f ms@,"
          (String.concat "" (List.init depth (fun _ -> "  ")))
          (List.nth path depth) !count !total)
      (List.rev !order);
    Format.fprintf fmt "@]"

(* Span table restricted to one [core.lb.level] subtree, selected by the
   ("level", i) arg the engine stamps on the span. The engine processes
   levels sequentially, so a matching level span's [t0, t1] window
   delimits its work exactly — including probe tasks fanned out to other
   pool domains, which begin and end inside the window. Scoping by
   window therefore captures the whole subtree across domains while
   excluding sibling levels. *)
let pp_level ~level fmt () =
  let want = string_of_int level in
  let events = Obs.events () in
  (* Pass 1: the [t0, t1] windows of matching level spans (one per
     engine run in the buffer), via per-domain stacks. *)
  let windows = ref [] in
  let stacks : (int, (string * int64 * bool) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  List.iter
    (fun (e : Obs.event) ->
      let stack = stack_of e.ev_tid in
      match e.ev_phase with
      | Obs.B ->
        let matches =
          e.ev_name = "core.lb.level"
          && List.exists (fun (k, v) -> k = "level" && v = want) e.ev_args
        in
        stack := (e.ev_name, e.ev_ts, matches) :: !stack
      | Obs.E -> (
        match !stack with
        | [] -> ()
        | (_, t0, matches) :: rest ->
          stack := rest;
          if matches then windows := (t0, e.ev_ts) :: !windows))
    events;
  let in_window ts =
    List.exists (fun (t0, t1) -> ts >= t0 && ts <= t1) !windows
  in
  (* Pass 2: accumulate every span beginning inside a window. *)
  let order : string list ref = ref [] in
  let totals : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  Hashtbl.reset stacks;
  let stacks2 : (int, (string * int64 * bool * float ref) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack2_of tid =
    match Hashtbl.find_opt stacks2 tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks2 tid s;
      s
  in
  List.iter
    (fun (e : Obs.event) ->
      let stack = stack2_of e.ev_tid in
      match e.ev_phase with
      | Obs.B -> stack := (e.ev_name, e.ev_ts, in_window e.ev_ts, ref 0.) :: !stack
      | Obs.E -> (
        match !stack with
        | [] -> ()
        | (name, t0, in_scope, child) :: rest ->
          stack := rest;
          let dur = Int64.to_float (Int64.sub e.ev_ts t0) /. 1e6 in
          (match rest with
          | (_, _, _, pchild) :: _ -> pchild := !pchild +. dur
          | [] -> ());
          if in_scope then begin
            let count, total, self =
              match Hashtbl.find_opt totals name with
              | Some s -> s
              | None ->
                let s = (ref 0, ref 0., ref 0.) in
                Hashtbl.add totals name s;
                order := name :: !order;
                s
            in
            incr count;
            total := !total +. dur;
            self := !self +. (dur -. !child)
          end))
    events;
  match List.rev !order with
  | [] ->
    Format.fprintf fmt "no spans recorded for level %d (enable the sink and \
                        pick a level below the outcome's)@."
      level
  | names ->
    Format.fprintf fmt "@[<v>spans within core.lb.level level=%d:@," level;
    Format.fprintf fmt "  %-34s %8s %12s %12s %10s@," "name" "count" "total ms"
      "self ms" "mean us";
    List.iter
      (fun name ->
        let count, total, self = Hashtbl.find totals name in
        Format.fprintf fmt "  %-34s %8d %12.3f %12.3f %10.1f@," name !count
          !total !self
          (1000. *. !total /. float_of_int !count))
      names;
    Format.fprintf fmt "@]"

(* Machine-readable form of the [pp] tables plus histogram quantiles:
   one JSON object so scripts can consume `ld stats --json` without
   scraping the aligned text. Quantiles are reported in milliseconds
   to match the text tables; the exposition endpoint is the place for
   base-unit seconds. *)
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
  Json.Obj
    ([
       ("spans", Json.Arr (List.map span (Obs.span_totals ())));
       ("counters", ints (Obs.counters ()));
       ("gauges", ints (Obs.gauges ()));
       ("histograms", Json.Arr (List.map hist (Hist.snapshots ())));
       ("domains", Json.Arr (List.map domain (per_domain ())));
     ]
    @
    match Obs.peak_rss_kb () with
    | Some kb -> [ ("peak_rss_kb", Json.int kb) ]
    | None -> [])

let to_json () = Json.render (json ())

let section_ms ~prefix =
  List.filter_map
    (fun (name, (_, total, _)) ->
      if String.starts_with ~prefix name then
        Some
          ( String.sub name (String.length prefix)
              (String.length name - String.length prefix),
            total )
      else None)
    (Obs.span_totals ())
