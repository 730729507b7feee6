(* Bench-regression sentinel: join the rows of two BENCH_*.json
   artefacts on their key columns and compare per-row wall time, and
   per-row init time (a runtime row's [runtime.packed.init] span)
   wherever both rows carry an [init_ms].

   Both artefact kinds carry a `rows` array. THM1 rows key on `delta`;
   runtime rows key on (workload, algo, n, domains); anything else
   falls back to every non-measure field. Rows present in only one
   file are reported but never gate — a `--quick` pass is expected to
   cover a subset of the committed full-pass baseline.

   Gating: a row regresses when `new_wall / old_wall` exceeds the
   tolerance AND the old wall is at least [min_wall_ms] (sub-
   millisecond rows are pure noise). With [normalize] each ratio is
   divided by the median ratio across all joined rows first, which
   cancels a uniform machine-speed difference (CI runner vs the dev
   box that produced the baseline) while leaving a *selective*
   slowdown — one row regressing while its siblings hold — fully
   visible. An injected uniform slowdown is only caught without
   normalization, which is why the CI self-check injects into a single
   row.

   An [init_ms] comparison follows the same rules with its own median
   (initialisation and rounds need not scale alike between machines),
   and is reported as [<key> [init_ms]]. *)

type comparison = {
  c_key : string; (* the row key, plus " [init_ms]" for the init column *)
  c_old_ms : float;
  c_new_ms : float;
  c_ratio : float; (* new / old *)
  c_norm_ratio : float; (* ratio / median ratio (= ratio when not normalizing) *)
  c_gated : bool; (* old wall >= min_wall_ms *)
  c_regressed : bool;
  c_improved : bool;
}

type report = {
  r_old_path : string;
  r_new_path : string;
  r_tolerance : float;
  r_normalized : bool;
  r_medians : (string * float) list; (* per gated column, in [columns] order *)
  r_compared : comparison list;
  r_only_old : string list;
  r_only_new : string list;
}

(* "1.5x" or "1.5" *)
let tolerance_of_string s =
  let s = String.trim s in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = 'x' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match float_of_string_opt s with
  | Some t when t > 1.0 -> Some t
  | _ -> None

(* Gated columns. Every compared row has a wall time; a runtime row also
   has the init part of it. *)
let columns = [ "wall_ms"; "init_ms" ]

let num_field row k = Option.bind (Json.member k row) Json.to_float
let str_field row k = Option.bind (Json.member k row) Json.to_string

(* The join key: named columns when the known ones are present, else
   every field that is not a measurement. *)
let measure_fields =
  [
    "wall_ms"; "init_ms"; "sends_per_sec"; "rounds_per_sec"; "peak_rss_kb";
    "rounds"; "sends"; "certified_levels"; "frontier"; "refine_rounds";
    "descriptors"; "round_p50_ms"; "round_p99_ms"; "minor_words";
  ]

let key_of_row row =
  match num_field row "delta" with
  | Some d
    when str_field row "workload" = None ->
    Printf.sprintf "delta=%g" d
  | _ -> (
    match (str_field row "workload", str_field row "algo") with
    | Some w, Some a ->
      Printf.sprintf "%s/%s n=%g domains=%g" w a
        (Option.value ~default:0. (num_field row "n"))
        (Option.value ~default:0. (num_field row "domains"))
    | _ -> (
      match row with
      | Json.Obj kvs ->
        String.concat ","
          (List.filter_map
             (fun (k, v) ->
               if List.mem k measure_fields then None
               else
                 match v with
                 | Json.Num f -> Some (Printf.sprintf "%s=%g" k f)
                 | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
                 | _ -> None)
             kvs)
      | _ -> "?"))

let rows_of path =
  match Json.parse_file path with
  | exception Sys_error e -> Error e
  | exception Json.Parse_error (msg, pos) ->
    Error (Printf.sprintf "%s: JSON parse error: %s at byte %d" path msg pos)
  | doc -> (
    match Option.bind (Json.member "rows" doc) Json.to_list with
    | None -> Error (Printf.sprintf "%s: no \"rows\" array" path)
    | Some rows ->
      Ok
        (List.filter_map
           (fun row ->
             if Option.is_none (num_field row "wall_ms") then None
             else Some (key_of_row row, row))
           rows))

let median xs =
  match List.sort Float.compare xs with
  | [] -> 1.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let compare_files ?(tolerance = 1.5) ?(normalize = false) ?(min_wall_ms = 1.0)
    ~old_path ~new_path () =
  match (rows_of old_path, rows_of new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_rows, Ok new_rows ->
    let joined =
      List.filter_map
        (fun (k, old_row) ->
          match List.assoc_opt k new_rows with
          | Some new_row -> Some (k, old_row, new_row)
          | None -> None)
        old_rows
    in
    if joined = [] then
      Error
        (Printf.sprintf
           "no rows of %s match rows of %s — nothing to compare" old_path
           new_path)
    else begin
      let ratio old_ms new_ms =
        if old_ms <= 0. then 1.0 else new_ms /. old_ms
      in
      (* One column: its (key, old, new) triples over the joined rows
         that carry it in both files, its median ratio, and the
         comparisons. *)
      let column col =
        let pairs =
          List.filter_map
            (fun (k, o, n) ->
              match (num_field o col, num_field n col) with
              | Some old_ms, Some new_ms ->
                let key =
                  if String.equal col "wall_ms" then k else k ^ " [" ^ col ^ "]"
                in
                Some (key, old_ms, new_ms)
              | _ -> None)
            joined
        in
        let med =
          if normalize then median (List.map (fun (_, o, n) -> ratio o n) pairs)
          else 1.0
        in
        let med = if med <= 0. then 1.0 else med in
        let judge (key, old_ms, new_ms) =
          let r = ratio old_ms new_ms in
          let nr = r /. med in
          let gated = old_ms >= min_wall_ms in
          {
            c_key = key;
            c_old_ms = old_ms;
            c_new_ms = new_ms;
            c_ratio = r;
            c_norm_ratio = nr;
            c_gated = gated;
            c_regressed = gated && nr > tolerance;
            c_improved = gated && nr < 1.0 /. tolerance;
          }
        in
        if pairs = [] then None else Some ((col, med), List.map judge pairs)
      in
      let medians, compared = List.split (List.filter_map column columns) in
      let joined_keys = List.map (fun (k, _, _) -> k) joined in
      Ok
        {
          r_old_path = old_path;
          r_new_path = new_path;
          r_tolerance = tolerance;
          r_normalized = normalize;
          r_medians = medians;
          r_compared = List.concat compared;
          r_only_old =
            List.filter_map
              (fun (k, _) ->
                if List.mem k joined_keys then None else Some k)
              old_rows;
          r_only_new =
            List.filter_map
              (fun (k, _) ->
                if List.mem k joined_keys then None else Some k)
              new_rows;
        }
    end

let regressions r = List.filter (fun c -> c.c_regressed) r.r_compared

(* 0 clean, 1 regression beyond tolerance; shape errors are the
   caller's to map (the CLI uses 2). *)
let exit_code r = if regressions r = [] then 0 else 1

let render r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "bench-diff: %s -> %s\n" r.r_old_path r.r_new_path;
  add "tolerance %.2fx%s; rows compared: %d (old-only %d, new-only %d)\n"
    r.r_tolerance
    (if r.r_normalized then
       ", normalized by median ratio "
       ^ String.concat ", "
           (List.map
              (fun (col, med) -> Printf.sprintf "%.3f (%s)" med col)
              r.r_medians)
     else "")
    (List.length r.r_compared)
    (List.length r.r_only_old)
    (List.length r.r_only_new);
  add "  %-56s %12s %12s %8s %8s  %s\n" "row" "old ms" "new ms" "ratio"
    "norm" "verdict";
  List.iter
    (fun c ->
      add "  %-56s %12.3f %12.3f %7.2fx %7.2fx  %s\n" c.c_key c.c_old_ms
        c.c_new_ms c.c_ratio c.c_norm_ratio
        (if c.c_regressed then "REGRESSED"
         else if not c.c_gated then "ignored (below min wall)"
         else if c.c_improved then "improved"
         else "ok"))
    r.r_compared;
  (match regressions r with
  | [] -> add "OK: no row beyond %.2fx\n" r.r_tolerance
  | rs ->
    add "FAIL: %d row(s) regressed beyond %.2fx: %s\n" (List.length rs)
      r.r_tolerance
      (String.concat ", " (List.map (fun c -> c.c_key) rs)));
  Buffer.contents buf
