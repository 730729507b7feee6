(* A minimal fork-join pool over OCaml 5 domains. Its callers are the
   packed executor's two round phases (receive, refresh) in
   [Engine.split], the per-Δ theorem rows of the benchmark's two-domain
   speedup probe, and [ld serve --preload]'s per-Δ cache builds. Tasks
   are pulled from a shared atomic index; results land in a slot per
   task, so the output order is the submission order no matter which
   domain ran what — callers see deterministic results. *)

module Obs = Ld_obs.Obs

let c_maps = Obs.Counter.make "core.pool.maps"
let c_tasks = Obs.Counter.make "core.pool.tasks"
let c_workers = Obs.Counter.make "core.pool.workers_spawned"

(* The backtrace travels with the exception so a worker failure
   re-raised on the main domain still points into the task body. *)
type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* [LD_DOMAINS] is parsed once per process: every engine run and every
   map asks for the default, and a malformed value must warn once, not
   once per ask. Domains that race on the first ask may each parse, but
   only the one that publishes the result prints the warning. *)
let parse_domains () =
  match Sys.getenv_opt "LD_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d -> (Stdlib.max 1 d, None)
    | None ->
      ( 1,
        Some
          (Printf.sprintf
             "ld: warning: ignoring malformed LD_DOMAINS=%S (expected an \
              integer); using 1 domain\n"
             s) ))
  | None -> (Stdlib.max 1 (Stdlib.min 8 (Domain.recommended_domain_count ())), None)

(* 0 until the first ask; a parsed count is at least 1. *)
let parsed_domains = Atomic.make 0

let default_domains () =
  match Atomic.get parsed_domains with
  | 0 ->
    let d, warning = parse_domains () in
    if Atomic.compare_and_set parsed_domains 0 d then
      Option.iter (fun w -> prerr_string w; flush stderr) warning;
    d
  | d -> d

(* [timed_span] emits the same "core.pool.task" span events as the
   [with_span] it replaces, and additionally feeds the task's wall time
   into the latency histogram of the same name. *)
let h_task = Ld_obs.Hist.make "core.pool.task"
let run_task f x = Ld_obs.Hist.timed_span h_task (fun () -> f x)

let map ?domains f items =
  let input = Array.of_list items in
  let n = Array.length input in
  let requested =
    match domains with Some d -> Stdlib.max 1 d | None -> default_domains ()
  in
  let workers = Stdlib.min requested n in
  Obs.Counter.incr c_maps;
  Obs.Counter.add c_tasks n;
  if workers <= 1 then List.map (run_task f) items
  else
    Obs.with_span
      ~args:
        [ ("tasks", string_of_int n); ("workers", string_of_int workers) ]
      "core.pool.map"
    @@ fun () ->
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          (match run_task f input.(i) with
          | v -> Done v
          | exception e -> Failed (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let worker () = Obs.with_span "core.pool.worker" work in
    Obs.Counter.add c_workers (workers - 1);
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    (* The join is the pool's idle tail: the main domain ran dry while
       some worker still holds the longest task. *)
    Obs.with_span "core.pool.join" (fun () -> Array.iter Domain.join spawned);
    (* Surface the first failure in submission order, as sequential
       [List.map] would — with the worker domain's backtrace. *)
    Array.to_list results
    |> List.map (function
         | Done v -> v
         | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
         | Pending -> assert false)

let mapi ?domains f items =
  map ?domains (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) items)
