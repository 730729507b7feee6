(* Plumbing shared by the workloads: the clock, order statistics, the
   metric table and correctness tally, memory and GC probes, child
   processes and the run's scratch directory. *)

module Obs = Ld_obs.Obs
module Json = Ld_obs.Json

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the measured phase *)
  trace : bool;  (** per-layer run: sink on, per-layer metrics out *)
  toy : bool;  (** smoke-test sizes *)
  scratch : string;  (** per-run directory, removed at exit *)
}

(* ---- clock and statistics ---- *)

let now_ns = Obs.now_ns
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, since t0)

let sum = List.fold_left ( +. ) 0.

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Harness.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* ---- machine-speed calibration ----

   The hosts this runs on share cores and caches with other tenants,
   and a unit's wall time moves by up to 2x as they come and go. A
   fixed kernel, timed in the same process right around each measured
   unit, tracks that: every reported time is the unit's wall time
   scaled by [cal_ref_s] / (mean kernel time around it), i.e. seconds
   on a machine where the kernel takes [cal_ref_s]. The kernel
   allocates like the code under test (hash table inserts, a list of
   boxed floats), which is what makes it slow down with it; it runs
   under the GC settings the process started with, so a change to GC
   parameters by the code under test cannot move it. *)

let cal_ref_s = 0.015
let initial_gc = Gc.get ()

let kernel () =
  let current = Gc.get () in
  Gc.set initial_gc;
  let _, s =
    timed (fun () ->
        let h = Hashtbl.create 16 in
        for i = 0 to 50_000 do
          Hashtbl.replace h ((i * 7919) land 0xfffff) i
        done;
        let l = List.init 80_000 float_of_int in
        ignore (Sys.opaque_identity (List.fold_left ( +. ) 0. l, Hashtbl.length h)))
  in
  Gc.set current;
  s

(* [f ()], its wall time in seconds, and the factor that scales that
   time to the reference machine. *)
let scaled f =
  let k0 = kernel () in
  let v, s = timed f in
  let k1 = kernel () in
  (v, s, cal_ref_s /. ((k0 +. k1) /. 2.))

(* Runs [unit 0], [unit 1], ... : at least [min_units] of them, then
   more while the next one, at the mean unit time so far, still ends
   within [seconds] of the start. *)
let repeat ~seconds ~min_units unit =
  let t0 = now_ns () in
  let rec go i acc =
    let elapsed = since t0 in
    let next_end = elapsed +. (elapsed /. float_of_int (Stdlib.max 1 i)) in
    if i >= min_units && next_end > seconds then List.rev acc
    else go (i + 1) (unit i :: acc)
  in
  go 0 []

(* Runs the thunks of unit [i] starting with the [i]-th and wrapping
   around, so each variant leads in turn and drift in the machine's
   speed favours none; results come back in the given order. *)
let rotated i thunks =
  let a = Array.of_list thunks in
  let n = Array.length a in
  let results = Array.make n None in
  for j = 0 to n - 1 do
    let k = (i + j) mod n in
    results.(k) <- Some (a.(k) ())
  done;
  Array.to_list (Array.map Option.get results)

(* ---- metrics, rows and checks ---- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if
    not
      (List.mem_assoc name Metrics.end_to_end
      || List.mem_assoc name Metrics.per_layer)
  then invalid_arg ("Harness.set: undeclared metric " ^ name);
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Harness.set: %s is not finite" name);
  Hashtbl.replace values name v

(* The per-unit values behind a reported median, kept for the result
   file so a reader can see the distribution. *)
let samples : (string * float list) list ref = ref []
let sample name vs = samples := (name, vs) :: !samples

let rows : Json.value list ref = ref []
let add_row fields = rows := Json.Obj fields :: !rows
let notes : string list ref = ref []
let note s = if not (List.exists (String.equal s) !notes) then notes := s :: !notes
let attempted = ref 0
let failed = ref 0

(* [n] checks of one kind, [bad] of which failed. *)
let tally what ~n ~bad =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.eprintf "benchmark: check failed (%d of %d): %s\n%!" bad n what
  end

let check what ok = tally what ~n:1 ~bad:(if ok then 0 else 1)

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let str s = Json.Str s

(* ---- memory and GC ---- *)

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

let peak_rss_mb () =
  match Obs.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM is not readable from /proc/self/status"

(* Reported when clear_refs cannot be written: the figure is then the
   whole-process high-water mark, not the leg's. *)
let whole_process_rss_note =
  "peak RSS is whole-process VmHWM: /proc/self/clear_refs is not writable"

type gc = { minor : float; promoted : float; majors : int; top_heap_mb : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
    top_heap_mb = float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
  }

(* Allocation between two snapshots; the top heap is the later one. *)
let gc_since a =
  let b = gc_now () in
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    majors = b.majors - a.majors;
    top_heap_mb = b.top_heap_mb;
  }

let gc_to_json g =
  Json.Obj
    [
      ("minor_mwords", num (g.minor /. 1e6));
      ("promoted_mwords", num (g.promoted /. 1e6));
      ("major_collections", int g.majors);
      ("top_heap_mb", num g.top_heap_mb);
    ]

(* Per-layer gc.* as medians over the measured units. *)
let set_gc (gs : gc list) =
  set "gc.minor_mwords" (median (List.map (fun g -> g.minor /. 1e6) gs));
  set "gc.promoted_mwords" (median (List.map (fun g -> g.promoted /. 1e6) gs));
  set "gc.major_collections"
    (median (List.map (fun g -> float_of_int g.majors) gs));
  set "gc.top_heap_mb" (median (List.map (fun g -> g.top_heap_mb) gs))

(* ---- JSON field access (child reports, server responses) ---- *)

let field k v =
  match Json.member k v with
  | Some x -> x
  | None -> failwith ("missing JSON field " ^ k)

let float_field k v =
  match Json.to_float (field k v) with
  | Some f -> f
  | None -> failwith ("JSON field " ^ k ^ " is not a number")

let int_field k v = int_of_float (float_field k v)

let list_field k v =
  match Json.to_list (field k v) with
  | Some l -> l
  | None -> failwith ("JSON field " ^ k ^ " is not an array")

(* ---- files ---- *)

let state_dir = ".bench_build"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec tree_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc name -> acc + tree_bytes (Filename.concat path name))
      0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

(* The Chrome trace of the last traced unit; Ld_obs.Trace writes only
   while the sink is on. *)
let write_trace ctx =
  let path = Filename.concat state_dir ("traces/" ^ ctx.workload ^ ".json") in
  mkdir_p (Filename.dirname path);
  Obs.enable ();
  Ld_obs.Trace.write ~path;
  Obs.disable ()

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* ---- child processes ---- *)

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let env_with ~domains =
  let keep =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"LD_DOMAINS=" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (Printf.sprintf "LD_DOMAINS=%d" domains :: keep)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | line :: _ -> line
  | [] -> ""

(* Runs this executable with [--child args] in a fresh process and
   LD_DOMAINS=[domains]; returns the JSON report it prints last and the
   wall time from spawn to exit. *)
let run_child ?(domains = 1) args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "--child" :: args))
      (env_with ~domains) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let wall = since t0 in
  match status with
  | Unix.WEXITED 0 -> (Json.parse (last_line out), wall)
  | _ ->
    failwith
      (Printf.sprintf "child %s failed" (String.concat " " args))

(* ---- output ---- *)

let result_path ctx =
  Filename.concat state_dir
    (Printf.sprintf "results/%s-seed%d%s.json" ctx.workload ctx.seed
       (if ctx.trace then "-trace" else ""))

(* Prints each reported metric as [name value unit], saves the result
   file (rows keyed for `ld bench-diff`), and ends stdout with the one
   summary line. Returns the exit code. *)
let finish ctx =
  let declared = if ctx.trace then Metrics.per_layer else Metrics.end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt values name with
          | Some v -> v
          | None ->
            (* a layer this workload never enters did no work *)
            if not ctx.trace then check ("measured " ^ name) false;
            0.
        in
        Printf.printf "%s %s %s\n" name (Render.number v) unit;
        (name, Json.Obj [ ("value", num v); ("unit", str unit) ]))
      declared
  in
  let correct = !failed = 0 in
  let summary =
    [
      ("correct", Json.Bool correct);
      ("attempted", int !attempted);
      ("failed", int !failed);
      ("metrics", Json.Obj metrics);
    ]
  in
  (* Everything the run measured, including figures outside the
     reported set (serve-verify's client latencies on an untraced run). *)
  let measured =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) values [])
  in
  let path = result_path ctx in
  write_file path
    (Render.render
       (Json.Obj
          ([
             ("workload", str ctx.workload);
             ("seed", int ctx.seed);
             ("seconds", num ctx.seconds);
             ("trace", Json.Bool ctx.trace);
             ("notes", Json.Arr (List.rev_map str !notes));
           ]
          @ summary
          @ [
              ("measured", Json.Obj measured);
              ( "samples",
                Json.Obj
                  (List.rev_map
                     (fun (name, vs) -> (name, Json.Arr (List.map num vs)))
                     !samples) );
              ("rows", Json.Arr (List.rev !rows));
            ]))
    ^ "\n");
  Printf.printf "wrote %s\n" path;
  print_endline (Render.render (Json.Obj summary));
  if correct then 0 else 1
