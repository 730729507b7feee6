(* The sink switch is a plain atomic read on every instrumented call;
   everything else only runs once it is flipped on. *)

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

(* Long-running processes (`ld serve`, `ld load`) want
   counters, gauges and histograms but would grow the span buffers
   without bound; this second switch turns span events off while the
   numeric side keeps recording. Only consulted when the sink is on. *)
let spans_on = Atomic.make true
let set_span_recording b = Atomic.set spans_on b
let spans_enabled () = Atomic.get on && Atomic.get spans_on

let now_ns () = Monotonic_clock.now ()
let now_ms () = Int64.to_float (now_ns ()) /. 1e6

type phase = B | E

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : int64;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* One growable event buffer per domain, reached through domain-local
   storage: appends never synchronise. The registry of buffers (for
   export) takes a mutex only when a domain records its first event. *)
type buffer = { tid : int; mutable evs : event array; mutable len : int }

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let dummy_event = { ev_name = ""; ev_phase = B; ev_ts = 0L; ev_tid = 0; ev_args = [] }

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { tid = (Domain.self () :> int); evs = Array.make 256 dummy_event; len = 0 }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let push ev =
  let b = Domain.DLS.get buffer_key in
  if b.len = Array.length b.evs then begin
    let bigger = Array.make (2 * b.len) dummy_event in
    Array.blit b.evs 0 bigger 0 b.len;
    b.evs <- bigger
  end;
  b.evs.(b.len) <- ev;
  b.len <- b.len + 1

let span_begin ?(args = []) name =
  if spans_enabled () then
    push
      {
        ev_name = name;
        ev_phase = B;
        ev_ts = now_ns ();
        ev_tid = (Domain.self () :> int);
        ev_args = args;
      }

let span_end name =
  if spans_enabled () then
    push
      {
        ev_name = name;
        ev_phase = E;
        ev_ts = now_ns ();
        ev_tid = (Domain.self () :> int);
        ev_args = [];
      }

let with_span ?args name f =
  if not (spans_enabled ()) then f ()
  else begin
    span_begin ?args name;
    match f () with
    | v ->
      span_end name;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      span_end name;
      Printexc.raise_with_backtrace e bt
  end

module Counter = struct
  type t = { cname : string; cell : int Atomic.t }

  let table : (string, t) Hashtbl.t = Hashtbl.create 64
  let table_lock = Mutex.create ()

  let make cname =
    Mutex.lock table_lock;
    let c =
      match Hashtbl.find_opt table cname with
      | Some c -> c
      | None ->
        let c = { cname; cell = Atomic.make 0 } in
        Hashtbl.add table cname c;
        c
    in
    Mutex.unlock table_lock;
    c

  let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n)
  let incr c = add c 1
  let value c = Atomic.get c.cell
  let name c = c.cname

  (* Every registered counter (zeros included), name-sorted: a stable
     basis for differencing around a section of work. *)
  let snapshot_all () =
    Mutex.lock table_lock;
    let all =
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) table []
    in
    Mutex.unlock table_lock;
    List.sort (fun (a, _) (b, _) -> String.compare a b) all

  (* [diff before after]: per-counter increments between two snapshots,
     dropping zero deltas and counters absent from [after]. Counters
     born between the snapshots count from zero. *)
  let diff before after =
    List.filter_map
      (fun (name, v1) ->
        let v0 =
          match List.assoc_opt name before with Some v -> v | None -> 0
        in
        if v1 - v0 <> 0 then Some (name, v1 - v0) else None)
      after
end

module Gauge = struct
  type t = { gname : string; cell : int Atomic.t }

  let table : (string, t) Hashtbl.t = Hashtbl.create 16
  let table_lock = Mutex.create ()

  let make gname =
    Mutex.lock table_lock;
    let g =
      match Hashtbl.find_opt table gname with
      | Some g -> g
      | None ->
        let g = { gname; cell = Atomic.make 0 } in
        Hashtbl.add table gname g;
        g
    in
    Mutex.unlock table_lock;
    g

  (* Max-accumulate with a CAS loop: concurrent recorders can only
     push the value up, so a lost race is retried against the larger
     value and the final result is the true maximum. *)
  let record g v =
    if Atomic.get on then begin
      let rec loop () =
        let cur = Atomic.get g.cell in
        if v > cur && not (Atomic.compare_and_set g.cell cur v) then loop ()
      in
      loop ()
    end

  let value g = Atomic.get g.cell
  let name g = g.gname
end

let gauges () =
  Mutex.lock Gauge.table_lock;
  let all =
    Hashtbl.fold (fun name g acc -> (name, Gauge.value g) :: acc) Gauge.table []
  in
  Mutex.unlock Gauge.table_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

(* Peak resident set size (VmHWM) from /proc/self/status — a
   high-water mark since process start or the last [reset_peak_rss].
   [None] off Linux or if the field is missing. *)
(* Writing 5 to clear_refs resets this process's VmHWM to its current
   RSS, so a later VmHWM read is the peak of what ran in between. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc -> (
    match
      output_string oc "5";
      close_out oc
    with
    | () -> true
    | exception Sys_error _ -> false)
  | exception Sys_error _ -> false

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  (* ld-lint: allow exn-swallow — best-effort probe, absence of procfs is fine *)
  | exception _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          let rest = String.trim (String.sub line 6 (String.length line - 6)) in
          match String.split_on_char ' ' rest with
          | kb :: _ -> int_of_string_opt kb
          | [] -> None
        end
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let counters () =
  Mutex.lock Counter.table_lock;
  let all =
    Hashtbl.fold (fun name c acc -> (name, Counter.value c) :: acc) Counter.table []
  in
  Mutex.unlock Counter.table_lock;
  (* Names are unique Hashtbl keys, so ordering by name is total. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let buffers_snapshot () =
  Mutex.lock registry_lock;
  let bufs = List.rev !registry in
  Mutex.unlock registry_lock;
  bufs

let events () =
  List.concat_map
    (fun b -> List.init b.len (fun i -> b.evs.(i)))
    (buffers_snapshot ())

(* Drop recorded span events only, keeping counter and gauge values:
   what a long-lived sampler calls to bound memory. Quiesce recording
   domains first — truncating a buffer its owner is appending to loses
   the in-flight event. *)
let reset_events () =
  Mutex.lock registry_lock;
  List.iter (fun b -> b.len <- 0) !registry;
  Mutex.unlock registry_lock

let reset () =
  reset_events ();
  Mutex.lock Counter.table_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.Counter.cell 0) Counter.table;
  Mutex.unlock Counter.table_lock;
  Mutex.lock Gauge.table_lock;
  Hashtbl.iter (fun _ g -> Atomic.set g.Gauge.cell 0) Gauge.table;
  Mutex.unlock Gauge.table_lock

(* Fold each buffer through a span stack: a begin pushes, the matching
   end pops and charges the span's wall time to its name, subtracting
   the child's time from the parent's self time. Aggregation keys are
   ordered by first occurrence so summaries read in execution order. *)
let span_totals () =
  let order : string list ref = ref [] in
  let totals : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let slot name =
    match Hashtbl.find_opt totals name with
    | Some s -> s
    | None ->
      let s = (ref 0, ref 0., ref 0.) in
      Hashtbl.add totals name s;
      order := name :: !order;
      s
  in
  List.iter
    (fun b ->
      (* stack of (name, begin ts, child wall ns) *)
      let stack = ref [] in
      for i = 0 to b.len - 1 do
        let ev = b.evs.(i) in
        match ev.ev_phase with
        | B -> stack := (ev.ev_name, ev.ev_ts, ref 0L) :: !stack
        | E -> (
          match !stack with
          | [] -> () (* unbalanced end: ignore *)
          | (name, t0, children) :: rest ->
            stack := rest;
            let wall = Int64.sub ev.ev_ts t0 in
            (match rest with
            | (_, _, parent_children) :: _ ->
              parent_children := Int64.add !parent_children wall
            | [] -> ());
            let count, total, self = slot name in
            incr count;
            let wall_ms = Int64.to_float wall /. 1e6 in
            total := !total +. wall_ms;
            self := !self +. wall_ms -. (Int64.to_float !children /. 1e6))
      done)
    (buffers_snapshot ());
  List.rev_map
    (fun name ->
      let count, total, self = Hashtbl.find totals name in
      (name, (!count, !total, !self)))
    !order
