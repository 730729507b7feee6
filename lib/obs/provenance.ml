(* Run provenance for JSON bench artefacts: which commit the binary
   was produced from, whether the tree was dirty, and when the run
   happened. A stored BENCH_*.json must identify the code it measured
   — recording HEAD alone is not enough, since an uncommitted tree
   measures code no commit contains (that is exactly the staleness
   this module exists to prevent; see DESIGN.md § Benchmarks). All
   probes are best-effort: absence of git yields [None], never a
   failure. *)

let run_line cmd =
  match Unix.open_process_in cmd with
  (* ld-lint: allow exn-swallow — best-effort probe, absence of git is fine *)
  | exception _ -> None
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    (* drain so close_process_in does not race a writing child *)
    (try
       while true do
         ignore (input_line ic)
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim line)
    | _ -> None
    (* ld-lint: allow exn-swallow — best-effort probe, absence of git is fine *)
    | exception _ -> None)

let git_head () =
  match run_line "git rev-parse --short HEAD 2>/dev/null" with
  | Some "" | None -> None
  | Some line -> Some line

(* "Dirty" means the *measured code* differs from HEAD. The bench
   artefacts themselves (BENCH_*.json) are outputs of the measurement,
   not inputs to it, so a freshly regenerated sibling artefact must
   not flip the flag — and neither may untracked scratch files like
   trace.json (a best-effort probe accepts missing brand-new sources
   here rather than reporting every artefact run as dirty). *)
let git_dirty () =
  match
    run_line
      "git status --porcelain --untracked-files=no -- \
       ':(exclude)BENCH_*.json' 2>/dev/null"
  with
  | None -> None
  | Some line -> Some (line <> "")

let iso8601 t =
  (* Wall-clock metadata for the artefact — sanctioned here: lib/obs
     owns the clock, so no lint allow is needed (or permitted; a
     redundant one reads as stale). *)
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

type t = { commit : string; dirty : bool option; timestamp : string }

let capture () =
  {
    commit = Option.value ~default:"unknown" (git_head ());
    dirty = git_dirty ();
    (* wall-clock metadata; sanctioned inside lib/obs *)
    timestamp = iso8601 (Unix.time ());
  }

(* The meta fields shared by every bench artefact, so emitters stay in
   sync. *)
let json_meta_fields p =
  [
    ("git_commit", Json.Str p.commit);
    ("git_dirty", match p.dirty with None -> Json.Null | Some d -> Json.Bool d);
    ("timestamp", Json.Str p.timestamp);
  ]
