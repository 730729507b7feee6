(* Ld_obs: trace well-formedness, counter atomicity under the domain
   pool, the disabled sink as a true no-op, and the adversary's
   instrumented/uninstrumented equivalence. *)

module Obs = Ld_obs.Obs
module Trace = Ld_obs.Trace
module Summary = Ld_obs.Summary
module Hist = Ld_obs.Hist
module Json = Ld_obs.Json
module Openmetrics = Ld_obs.Openmetrics
module Bench_diff = Ld_obs.Bench_diff
module Provenance = Ld_obs.Provenance
module Pool = Ld_pool.Pool
module LB = Ld_core.Lower_bound
module Packing = Ld_matching.Packing
module Ec = Ld_models.Ec
module Q = Ld_arith.Q

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator: accepts exactly one JSON value plus
   whitespace. Raises [Failure] on malformed input — enough to assert
   the trace file is valid JSON without a JSON dependency. *)

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let peek_is c = !pos < n && Char.equal s.[!pos] c in
  let advance () = incr pos in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      ws ()
    | _ -> ()
  in
  let expect c =
    if peek_is c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal l =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then pos := !pos + String.length l
    else fail ("expected " ^ l)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    if peek_is '-' then advance ();
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    digits ();
    if peek_is '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' ->
      advance ();
      ws ();
      if peek_is '}' then advance ()
      else begin
        let rec members () =
          ws ();
          string_lit ();
          ws ();
          expect ':';
          value ();
          ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      ws ();
      if peek_is ']' then advance ()
      else begin
        let rec elements () =
          value ();
          ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected value"
  in
  value ();
  ws ();
  if !pos <> n then fail "trailing garbage"

(* ------------------------------------------------------------------ *)

let with_enabled f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let some_work delta = LB.run ~delta Packing.greedy_algorithm

let trace_well_formed () =
  with_enabled @@ fun () ->
  (* Spans from the main domain plus a 2-domain pool fan-out. *)
  ignore
    (Obs.with_span "test.outer" (fun () ->
         Pool.map ~domains:2 (fun d -> LB.max_level (some_work d)) [ 3; 4; 5; 6 ]));
  let events = Obs.events () in
  Alcotest.(check bool) "events recorded" true (events <> []);
  (* Per-domain streams: balanced begin/end, properly nested, monotone
     timestamps. A domain never appends to another domain's buffer, so
     grouping by tid reconstructs each stream. *)
  let tids = List.sort_uniq Int.compare (List.map (fun e -> e.Obs.ev_tid) events) in
  Alcotest.(check bool) "two domains traced" true (List.length tids >= 2);
  List.iter
    (fun tid ->
      let stream = List.filter (fun e -> e.Obs.ev_tid = tid) events in
      let depth = ref 0 in
      let last_ts = ref Int64.min_int in
      List.iter
        (fun (e : Obs.event) ->
          Alcotest.(check bool) "monotone ts" true (Int64.compare e.ev_ts !last_ts >= 0);
          last_ts := e.ev_ts;
          match e.ev_phase with
          | Obs.B -> incr depth
          | Obs.E ->
            decr depth;
            Alcotest.(check bool) "no end before begin" true (!depth >= 0))
        stream;
      Alcotest.(check int) (Printf.sprintf "balanced on tid %d" tid) 0 !depth)
    tids;
  (* The exported file is valid JSON. *)
  let path = Filename.temp_file "ld_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write ~path;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  validate_json contents;
  (* And the summary aggregation sees the outer span exactly once. *)
  match List.assoc_opt "test.outer" (Obs.span_totals ()) with
  | Some (count, total_ms, _) ->
    Alcotest.(check int) "outer span count" 1 count;
    Alcotest.(check bool) "outer span has wall time" true (total_ms > 0.)
  | None -> Alcotest.fail "test.outer span missing from totals"

let counter_atomic_under_pool () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.make "test.atomic" in
  let per_task = 25_000 and tasks = 8 in
  ignore
    (Pool.map ~domains:4
       (fun _ ->
         for _ = 1 to per_task do
           Obs.Counter.incr c
         done)
       (List.init tasks Fun.id));
  Alcotest.(check int) "no lost increments" (per_task * tasks) (Obs.Counter.value c)

let disabled_sink_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.Counter.make "test.disabled" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "counter stays zero" 0 (Obs.Counter.value c);
  let ran = ref false in
  let v =
    Obs.with_span "test.disabled.span" (fun () ->
        ran := true;
        17)
  in
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "value passed through" 17 v;
  Alcotest.(check bool) "no events recorded" true (Obs.events () = []);
  let path = Filename.temp_file "ld_obs_disabled" ".json" in
  Sys.remove path;
  Trace.write ~path;
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

(* The property the whole PR hangs on: instrumentation never changes
   results. The adversary's outcome with the sink enabled is
   structurally identical to the outcome with it disabled. *)
let outcome_fingerprint = function
  | LB.Certified certs ->
    ( true,
      List.map
        (fun (c : LB.certificate) ->
          ( c.level,
            c.colour,
            c.g_node,
            c.h_node,
            Ec.n (LB.force c.g_graph),
            Ec.n (LB.force c.h_graph),
            Q.to_string c.g_weight,
            Q.to_string c.h_weight ))
        certs,
      -1 )
  | LB.Refuted (certs, f) -> (false, [], f.LB.fail_level + List.length certs)

let instrumented_equals_uninstrumented =
  QCheck.Test.make ~count:20 ~name:"instrumented run = uninstrumented run"
    (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 0 4))
    (fun (delta, truncate_roll) ->
      (* Mix certified full runs with refuted truncations. *)
      let algo =
        if truncate_roll = 0 then Packing.truncated `Greedy (delta - 1)
        else Packing.greedy_algorithm
      in
      Obs.disable ();
      let plain = LB.run ~delta algo in
      Obs.enable ();
      Obs.reset ();
      let traced = Fun.protect ~finally:Obs.disable (fun () -> LB.run ~delta algo) in
      (* ld-lint: allow poly-compare — differential check over exact int/string fingerprints *)
      outcome_fingerprint plain = outcome_fingerprint traced)

(* ------------------------------------------------------------------ *)
(* Histograms: the quantile error bound the exposition documents, the
   shard merge across pool domains, the sink gate, and the span hook. *)

let hist_quantile_error_bound () =
  with_enabled @@ fun () ->
  let h = Hist.make "test.hist.quantile" in
  Hist.reset h;
  (* Deterministic spread across the exact region (< 32 ns) and many
     octaves, via a hand-rolled LCG — no global Random state. *)
  let seed = ref 123456789 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  let values =
    Array.init 5000 (fun i ->
        if i mod 7 = 0 then i mod 32 else 1 + (next () mod 50_000_000))
  in
  Array.iter (Hist.observe h) values;
  let sn = Hist.snapshot h in
  Alcotest.(check int) "count" (Array.length values) sn.Hist.sn_count;
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 values) sn.Hist.sn_sum;
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  (* Same rank rule as [Hist.quantile], read off the sorted values. *)
  let exact q =
    let r =
      Stdlib.max 1 (Stdlib.min (int_of_float (ceil (q *. float_of_int n))) n)
    in
    float_of_int sorted.(r - 1)
  in
  List.iter
    (fun q ->
      let est = Hist.quantile sn q in
      let tru = exact q in
      let err = Float.abs (est -. tru) in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within documented relative error" (q *. 100.))
        true
        (err <= (Hist.rel_error_bound *. tru) +. 1.0))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Alcotest.(check (float 0.)) "q=1 is the exact max"
    (float_of_int sn.Hist.sn_max)
    (Hist.quantile sn 1.0)

let hist_merges_across_domains () =
  with_enabled @@ fun () ->
  let h = Hist.make "test.hist.merge" in
  Hist.reset h;
  let per_task = 1000 and tasks = 8 in
  ignore
    (Pool.map ~domains:4
       (fun task ->
         for j = 0 to per_task - 1 do
           Hist.observe h ((task * 1_000_000) + (j * 37))
         done)
       (List.init tasks Fun.id));
  let sn = Hist.snapshot h in
  Alcotest.(check int) "merged count" (tasks * per_task) sn.Hist.sn_count;
  let expected_sum = ref 0 in
  for task = 0 to tasks - 1 do
    for j = 0 to per_task - 1 do
      expected_sum := !expected_sum + (task * 1_000_000) + (j * 37)
    done
  done;
  Alcotest.(check int) "merged sum" !expected_sum sn.Hist.sn_sum;
  Alcotest.(check int) "merged max"
    (((tasks - 1) * 1_000_000) + ((per_task - 1) * 37))
    sn.Hist.sn_max;
  match Array.length sn.Hist.sn_buckets with
  | 0 -> Alcotest.fail "no buckets after 8000 observations"
  | len ->
    let _, cum = sn.Hist.sn_buckets.(len - 1) in
    Alcotest.(check int) "last cumulative = count" sn.Hist.sn_count cum

let hist_gate_and_reset () =
  Obs.disable ();
  let h = Hist.make "test.hist.gate" in
  Hist.reset h;
  Hist.observe h 1234;
  Alcotest.(check int) "disabled observe is a no-op" 0
    (Hist.snapshot h).Hist.sn_count;
  with_enabled @@ fun () ->
  Hist.observe h 1234;
  Hist.observe h 5678;
  Alcotest.(check int) "recorded while enabled" 2
    (Hist.snapshot h).Hist.sn_count;
  Hist.reset h;
  let sn = Hist.snapshot h in
  Alcotest.(check int) "reset count" 0 sn.Hist.sn_count;
  Alcotest.(check int) "reset sum" 0 sn.Hist.sn_sum;
  Alcotest.(check int) "reset max" 0 sn.Hist.sn_max;
  Alcotest.(check int) "reset buckets" 0 (Array.length sn.Hist.sn_buckets)

let hist_timed_span_hook () =
  with_enabled @@ fun () ->
  let h = Hist.make "test.hist.span" in
  Hist.reset h;
  let v = Hist.timed_span h (fun () -> 42) in
  Alcotest.(check int) "value passed through" 42 v;
  Alcotest.(check int) "one observation" 1 (Hist.snapshot h).Hist.sn_count;
  let span_events () =
    List.length
      (List.filter (fun e -> e.Obs.ev_name = "test.hist.span") (Obs.events ()))
  in
  Alcotest.(check int) "begin+end recorded" 2 (span_events ());
  (* With span recording off the histogram still accumulates but the
     per-domain event buffers stop growing — the sampler contract. *)
  Obs.set_span_recording false;
  Fun.protect ~finally:(fun () -> Obs.set_span_recording true) @@ fun () ->
  ignore (Hist.timed_span h (fun () -> 1));
  Alcotest.(check int) "observation without span" 2
    (Hist.snapshot h).Hist.sn_count;
  Alcotest.(check int) "no new span events" 2 (span_events ())

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition shape: counters as _total, every histogram
   family with ascending le, non-decreasing cumulative counts, +Inf
   equal to _count, and the terminator line. *)

let openmetrics_shape () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.make "test.om.counter" in
  Obs.Counter.add c 7;
  let h = Hist.make "test.om.hist" in
  Hist.reset h;
  List.iter (Hist.observe h) [ 5; 40; 1_000; 50_000; 2_000_000; 2_000_000_000 ];
  let text = Openmetrics.render () in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "counter exposed as _total" true
    (List.mem "ld_test_om_counter_total 7" lines);
  let value_of line =
    match String.rindex_opt line ' ' with
    | Some i ->
      float_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.fail ("no sample value in: " ^ line)
  in
  let families =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; "histogram" ] -> Some name
        | _ -> None)
      lines
  in
  Alcotest.(check bool) "test histogram family present" true
    (List.mem "ld_test_om_hist_seconds" families);
  List.iter
    (fun fam ->
      let bucket_prefix = fam ^ "_bucket{le=\"" in
      let buckets =
        List.filter (String.starts_with ~prefix:bucket_prefix) lines
      in
      Alcotest.(check bool) (fam ^ " has bucket lines") true (buckets <> []);
      let le_of line =
        let start = String.length bucket_prefix in
        let stop = String.index_from line start '"' in
        String.sub line start (stop - start)
      in
      let les = List.map le_of buckets in
      (match List.rev les with
      | last :: _ -> Alcotest.(check string) (fam ^ " ends at +Inf") "+Inf" last
      | [] -> ());
      let finite =
        List.map float_of_string (List.filter (fun le -> le <> "+Inf") les)
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> Float.compare a b < 0 && ascending rest
        | _ -> true
      in
      Alcotest.(check bool) (fam ^ " le strictly ascending") true
        (ascending finite);
      let cums = List.map value_of buckets in
      let rec nondec = function
        | a :: (b :: _ as rest) -> Float.compare a b <= 0 && nondec rest
        | _ -> true
      in
      Alcotest.(check bool) (fam ^ " cumulative non-decreasing") true
        (nondec cums);
      let count_line =
        List.find (String.starts_with ~prefix:(fam ^ "_count ")) lines
      in
      Alcotest.(check (float 0.)) (fam ^ " +Inf equals _count")
        (value_of count_line)
        (List.nth cums (List.length cums - 1));
      Alcotest.(check bool) (fam ^ " has _sum") true
        (List.exists (String.starts_with ~prefix:(fam ^ "_sum ")) lines))
    families;
  match List.rev (List.filter (fun l -> l <> "") lines) with
  | last :: _ -> Alcotest.(check string) "terminator" "# EOF" last
  | [] -> Alcotest.fail "empty exposition"

(* ------------------------------------------------------------------ *)
(* JSON hardening: hostile bytes in span/counter names survive every
   emitter as valid pure-ASCII JSON, and the parser the bench-diff
   sentinel relies on round-trips what the emitters write. *)

let json_escape_units () =
  Alcotest.(check string) "quote" "\\\"" (Json.escape "\"");
  Alcotest.(check string) "backslash" "\\\\" (Json.escape "\\");
  Alcotest.(check string) "nul" "\\u0000" (Json.escape "\x00");
  Alcotest.(check string) "newline" "\\u000a" (Json.escape "\n");
  Alcotest.(check string) "high byte" "\\u00ff" (Json.escape "\xff");
  Alcotest.(check string) "plain passthrough" "abc" (Json.escape "abc")

let ascii_only s = String.for_all (fun c -> Char.code c < 0x80) s

let hostile_names_survive_export () =
  with_enabled @@ fun () ->
  let evil = "evil\"name\\with\ttab\x01ctl\x7fdel\xffhigh" in
  let v =
    Obs.with_span evil (fun () ->
        Obs.Counter.incr (Obs.Counter.make ("ctr." ^ evil));
        Hist.observe (Hist.make ("hist." ^ evil)) 100;
        17)
  in
  Alcotest.(check int) "value passed through" 17 v;
  let path = Filename.temp_file "ld_obs_evil" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write ~path;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  validate_json contents;
  Alcotest.(check bool) "trace is pure ASCII" true (ascii_only contents);
  let summary = Summary.to_json () in
  validate_json summary;
  Alcotest.(check bool) "summary is pure ASCII" true (ascii_only summary)

(* [ld adversary --format json] prints the summary: its [gc] object
   carries the process's GC figures, each a non-negative number, and
   some words have been allocated by now. *)
let summary_gc_figures () =
  let gc = Json.member "gc" (Json.parse (Summary.to_json ())) in
  let figure k = Option.bind (Option.bind gc (Json.member k)) Json.to_float in
  List.iter
    (fun k ->
      match figure k with
      | Some x -> Alcotest.(check bool) (k ^ " >= 0") true (x >= 0.)
      | None -> Alcotest.failf "summary.gc.%s missing" k)
    [ "minor_words"; "promoted_words"; "major_collections"; "top_heap_words" ];
  Alcotest.(check bool) "minor_words > 0" true
    (Option.value ~default:0. (figure "minor_words") > 0.)

let json_parser () =
  let doc = Json.parse {|{"rows": [{"delta": 4, "wall_ms": 1.5}], "ok": true}|} in
  (match Option.bind (Json.member "rows" doc) Json.to_list with
  | Some [ row ] ->
    Alcotest.(check (option (float 0.))) "delta" (Some 4.)
      (Option.bind (Json.member "delta" row) Json.to_float)
  | _ -> Alcotest.fail "rows shape");
  let rejects input =
    match Json.parse input with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unclosed object" true (rejects "{");
  Alcotest.(check bool) "trailing garbage" true (rejects "1 2");
  Alcotest.(check bool) "bad escape" true (rejects "\"\\q\"");
  Alcotest.(check bool) "bare word" true (rejects "wall_ms");
  (* A hostile frame nesting a million levels is refused at the depth
     bound instead of recursing once per level. *)
  Alcotest.(check bool) "nesting too deep" true
    (match Json.parse (String.make 1_000_000 '[') with
    | exception Json.Parse_error ("nesting too deep", _) -> true
    | _ -> false)

let json_printer_units () =
  let render f = Json.render (Json.Num f) in
  Alcotest.(check string) "nan" "null" (render Float.nan);
  Alcotest.(check string) "infinity" "null" (render Float.infinity);
  Alcotest.(check string) "integral" "3" (render 3.);
  Alcotest.(check string) "shortest" "0.1" (render 0.1);
  Alcotest.(check string) "compact" {|{"a":[1,true,null],"b":"x\u0001"}|}
    (Json.render
       (Json.Obj
          [
            ("a", Json.Arr [ Json.Num 1.; Json.Bool true; Json.Null ]);
            ("b", Json.Str "x\x01");
          ]));
  (* UTF-8 leaves as code points (a surrogate pair above the BMP) and
     reads back unchanged. *)
  List.iter
    (fun (s, escaped) ->
      Alcotest.(check string) ("escape " ^ escaped) escaped (Json.escape s);
      Alcotest.(check (option string)) ("read back " ^ escaped) (Some s)
        (Json.to_string (Json.parse (Json.render (Json.Str s)))))
    [ ("\xe2\x80\x94", "\\u2014"); ("\xf0\x9f\x98\x80", "\\ud83d\\ude00") ];
  (* A lone surrogate has no UTF-8 form and reads as U+FFFD. *)
  Alcotest.(check (option string)) "lone surrogate" (Some "\xef\xbf\xbdA")
    (Json.to_string (Json.parse {|"\ud800\u0041"|}))

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Num x, Json.Num y -> Float.equal x y
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && json_equal x y) xs ys
  | _ -> false

(* Strings of bytes < 0x80 (quotes, backslashes and control bytes
   included), finite numbers of every shape, nesting up to 6 levels. *)
let json_value_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_range 0 0x7f)) (int_range 0 8) in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
        float_range (-1e6) 1e6;
        map (fun f -> -.f) (float_range 0. 1e-3);
        map2 Float.ldexp (float_range (-1.) 1.) (int_range (-1000) 1000);
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) str;
      ]
  in
  let rec value depth =
    if depth = 0 then leaf
    else
      let sub g = list_size (int_range 0 4) g in
      frequency
        [
          (2, leaf);
          (1, map (fun vs -> Json.Arr vs) (sub (value (depth - 1))));
          (1, map (fun kvs -> Json.Obj kvs) (sub (pair str (value (depth - 1)))));
        ]
  in
  int_range 0 6 >>= value

let json_render_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (render v) = v"
    (QCheck.make ~print:Json.render json_value_gen)
    (fun v -> json_equal (Json.parse (Json.render v)) v)

(* ------------------------------------------------------------------ *)
(* Codec pins: digests of [render] over a fixed corpus of values and of
   [parse] outcomes over byte-mutated renders. The constants were
   recorded against the previous reader and writer, so any change to
   the printed bytes, the accepted language, an error message or an
   error position changes a digest. The corpora come from a local
   splitmix64 stream so they are the same bytes on every run. *)

let splitmix seed =
  let s = ref (Int64.of_int seed) in
  fun () ->
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

let below next n = Int64.to_int (Int64.unsigned_rem (next ()) (Int64.of_int n))

let pick next a = a.(below next (Array.length a))

let corpus_num next =
  match below next 7 with
  | 0 -> float_of_int (below next 2001 - 1000)
  | 1 ->
    pick next
      [|
        1e15; -1e15; 1e15 -. 1.; 1. -. 1e15; 1e15 +. 1.; 999999999999999.5;
        -999999999999999.5; 0.; -0.; 9007199254740992.; 1e300; -1e-300;
        5e-324; Float.max_float; Float.nan; Float.infinity; Float.neg_infinity;
      |]
  | 2 -> float_of_int (below next 2_000_000_000_000_000 - 1_000_000_000_000_000)
  | 3 -> float_of_int (below next 1_000_000) /. float_of_int (1 + below next 1000)
  | 4 -> Float.ldexp (float_of_int (below next 1_000_000_007)) (below next 200 - 100)
  | 5 -> Int64.float_of_bits (next ())
  | _ -> -.float_of_int (below next 100) /. 8.

let corpus_str next =
  let buf = Buffer.create 16 in
  for _ = 1 to below next 10 do
    match below next 6 with
    | 0 -> Buffer.add_char buf (Char.chr (below next 256))
    | 1 -> Buffer.add_string buf (pick next [| "\""; "\\"; "/"; "\n"; "\t"; "\x00"; "\x1f"; "\x7f" |])
    | 2 ->
      let lo, hi = pick next [| (0x80, 0x800); (0x800, 0xD800); (0xE000, 0x10000); (0x10000, 0x110000) |] in
      Buffer.add_utf_8_uchar buf (Uchar.of_int (lo + below next (hi - lo)))
    | _ -> Buffer.add_char buf (Char.chr (0x20 + below next 95))
  done;
  Buffer.contents buf

let rec corpus_value next depth =
  match below next (if depth = 0 then 4 else 8) with
  | 0 -> pick next [| Json.Null; Json.Bool true; Json.Bool false |]
  | 1 | 2 -> Json.Num (corpus_num next)
  | 3 -> Json.Str (corpus_str next)
  | 4 | 5 -> Json.Arr (List.init (below next 5) (fun _ -> corpus_value next (depth - 1)))
  | _ ->
    Json.Obj
      (List.init (below next 5) (fun _ ->
           let k = corpus_str next in
           (k, corpus_value next (depth - 1))))

let render_corpus () =
  let next = splitmix 2014 in
  List.init 2000 (fun _ -> corpus_value next (below next 5))

(* Number texts in and out of the JSON grammar: signs, leading zeros,
   1 to 20 digits, fractions and exponents, some of them cut short. *)
let number_text next =
  let digits n = String.init n (fun _ -> Char.chr (0x30 + below next 10)) in
  String.concat ""
    [
      pick next [| ""; ""; "-"; "+" |];
      (if below next 8 = 0 then "0" else "");
      digits (below next 21);
      (if below next 4 = 0 then "." ^ digits (below next 4) else "");
      (if below next 4 = 0 then pick next [| "e"; "E"; "e+"; "e-" |] ^ digits (below next 4)
       else "");
    ]

let mutate next s =
  let noise = "{}[],:\"\\-+.0123456789eEtrufalsn /bx\x01\x7f\xff\t" in
  let s = ref s in
  for _ = 1 to below next 4 do
    let n = String.length !s in
    let p = below next (n + 1) in
    let c = String.make 1 noise.[below next (String.length noise)] in
    s :=
      match below next 4 with
      | 0 when p < n -> String.sub !s 0 p ^ c ^ String.sub !s (p + 1) (n - p - 1)
      | 1 -> String.sub !s 0 p ^ c ^ String.sub !s p (n - p)
      | 2 when p < n -> String.sub !s 0 p ^ String.sub !s (p + 1) (n - p - 1)
      | _ -> String.sub !s 0 p
  done;
  !s

let parse_corpus () =
  let next = splitmix 1110 in
  List.map (fun v -> mutate next (Json.render v)) (render_corpus ())
  @ List.init 2000 (fun i ->
        let t = number_text next in
        if i mod 2 = 0 then t else "[" ^ t ^ ", " ^ t ^ "]")

let parse_outcome s =
  match Json.parse s with
  | v -> "ok " ^ Json.render v
  | exception Json.Parse_error (msg, pos) -> Printf.sprintf "error %s at %d" msg pos

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let json_codec_pinned () =
  Alcotest.(check string) "render digest" "e662c01fd88eafd07369b7d888793668"
    (digest (List.map Json.render (render_corpus ())));
  Alcotest.(check string) "parse digest" "1c80f3e8791a09f2aafb89cc765cbd30"
    (digest (List.map parse_outcome (parse_corpus ())))

let json_number_literals () =
  List.iter
    (fun (text, outcome) -> Alcotest.(check string) text outcome (parse_outcome text))
    [
      ("999999999999999", "ok 999999999999999");
      ("1000000000000000", "ok 1e+15");
      ("-0", "ok 0");
      ("01", "ok 1");
      ("1e2", "ok 100");
      ("1.0", "ok 1");
      ("-", "error expected digit at 1");
    ];
  Alcotest.(check bool) "-0 keeps its sign" true
    (match Json.parse "-0" with Json.Num f -> Float.sign_bit f | _ -> false)

(* ------------------------------------------------------------------ *)

let counter_snapshot_diff () =
  with_enabled @@ fun () ->
  let a = Obs.Counter.make "test.diff.a" in
  ignore (Obs.Counter.make "test.diff.untouched");
  let before = Obs.Counter.snapshot_all () in
  Obs.Counter.add a 5;
  let born = Obs.Counter.make "test.diff.born" in
  Obs.Counter.incr born;
  let after = Obs.Counter.snapshot_all () in
  let d = Obs.Counter.diff before after in
  Alcotest.(check (option int)) "increment" (Some 5)
    (List.assoc_opt "test.diff.a" d);
  Alcotest.(check (option int)) "born counter counts from zero" (Some 1)
    (List.assoc_opt "test.diff.born" d);
  Alcotest.(check (option int)) "zero delta dropped" None
    (List.assoc_opt "test.diff.untouched" d)

let gauge_max_under_contention () =
  with_enabled @@ fun () ->
  let g = Obs.Gauge.make "test.gauge.contended" in
  let per_task = 1000 and tasks = 8 in
  ignore
    (Pool.map ~domains:4
       (fun task ->
         for j = 0 to per_task - 1 do
           Obs.Gauge.record g ((task * per_task) + j)
         done)
       (List.init tasks Fun.id));
  Alcotest.(check int) "CAS max survives 4-domain contention"
    ((tasks * per_task) - 1)
    (Obs.Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Provenance: the dirty probe against a throwaway git repository —
   clean after commit, still clean with an untracked scratch file
   (--untracked-files=no), dirty once a tracked file changes. *)

let provenance_git_dirty () =
  if Sys.command "git --version >/dev/null 2>&1" <> 0 then
    print_endline "git unavailable — skipping provenance probe test"
  else begin
    let dir = Filename.temp_file "ld_prov_repo" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    let here = Sys.getcwd () in
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir here;
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
      (fun () ->
        Sys.chdir dir;
        let git fmt =
          Printf.ksprintf
            (fun cmd -> Alcotest.(check int) cmd 0 (Sys.command cmd))
            fmt
        in
        git "git init -q";
        Out_channel.with_open_text "tracked.txt" (fun oc ->
            Out_channel.output_string oc "v1\n");
        git "git add tracked.txt";
        git
          "git -c user.name=t -c user.email=t@t -c commit.gpgsign=false \
           commit -q -m init";
        Alcotest.(check (option bool)) "clean tree" (Some false)
          (Provenance.git_dirty ());
        Alcotest.(check bool) "head resolves" true
          (Provenance.git_head () <> None);
        Out_channel.with_open_text "scratch.txt" (fun oc ->
            Out_channel.output_string oc "x\n");
        Alcotest.(check (option bool)) "untracked file ignored" (Some false)
          (Provenance.git_dirty ());
        Out_channel.with_open_text "tracked.txt" (fun oc ->
            Out_channel.output_string oc "v2\n");
        Alcotest.(check (option bool)) "tracked modification flagged"
          (Some true) (Provenance.git_dirty ()))
  end

(* ------------------------------------------------------------------ *)
(* The bench-regression sentinel. *)

let write_bench path rows =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "{\"rows\": [%s]}" (String.concat ", " rows)))

let thm1_row delta wall =
  Printf.sprintf "{\"delta\": %d, \"wall_ms\": %.3f}" delta wall

let with_temp_pair f =
  let old_p = Filename.temp_file "ld_bd_old" ".json" in
  let new_p = Filename.temp_file "ld_bd_new" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove old_p;
      Sys.remove new_p)
    (fun () -> f old_p new_p)

let ok_or_fail = function Ok r -> r | Error e -> Alcotest.fail e

let bench_diff_identical_passes () =
  with_temp_pair @@ fun old_p new_p ->
  let rows = [ thm1_row 4 100.; thm1_row 5 200.; thm1_row 6 0.5 ] in
  write_bench old_p rows;
  write_bench new_p rows;
  let r =
    ok_or_fail (Bench_diff.compare_files ~old_path:old_p ~new_path:new_p ())
  in
  Alcotest.(check int) "identical files pass" 0 (Bench_diff.exit_code r);
  Alcotest.(check int) "all rows joined" 3
    (List.length r.Bench_diff.r_compared);
  let sub =
    List.find
      (fun c -> c.Bench_diff.c_key = "delta=6")
      r.Bench_diff.r_compared
  in
  Alcotest.(check bool) "sub-millisecond row not gated" false
    sub.Bench_diff.c_gated

let bench_diff_detects_regression () =
  with_temp_pair @@ fun old_p new_p ->
  write_bench old_p [ thm1_row 4 100.; thm1_row 5 200. ];
  write_bench new_p [ thm1_row 4 110.; thm1_row 5 450. ];
  let r =
    ok_or_fail (Bench_diff.compare_files ~old_path:old_p ~new_path:new_p ())
  in
  Alcotest.(check int) "regression exits 1" 1 (Bench_diff.exit_code r);
  match Bench_diff.regressions r with
  | [ c ] ->
    Alcotest.(check string) "the doubled row" "delta=5" c.Bench_diff.c_key;
    Alcotest.(check bool) "ratio beyond tolerance" true
      (c.Bench_diff.c_ratio > 2.0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d"
                           (List.length rs))

let bench_diff_normalize () =
  with_temp_pair @@ fun old_p new_p ->
  write_bench old_p [ thm1_row 4 100.; thm1_row 5 200.; thm1_row 6 300. ];
  (* Uniform 2x: raw comparison regresses, normalized passes — the
     machine-speed case. *)
  write_bench new_p [ thm1_row 4 200.; thm1_row 5 400.; thm1_row 6 600. ];
  let raw =
    ok_or_fail (Bench_diff.compare_files ~old_path:old_p ~new_path:new_p ())
  in
  Alcotest.(check int) "uniform slowdown caught raw" 1
    (Bench_diff.exit_code raw);
  let norm =
    ok_or_fail
      (Bench_diff.compare_files ~normalize:true ~old_path:old_p
         ~new_path:new_p ())
  in
  Alcotest.(check (float 1e-9)) "median ratio" 2.0
    (List.assoc "wall_ms" norm.Bench_diff.r_medians);
  Alcotest.(check int) "uniform slowdown cancels normalized" 0
    (Bench_diff.exit_code norm);
  (* Selective 6x on one row stays visible through normalization. *)
  write_bench new_p [ thm1_row 4 200.; thm1_row 5 400.; thm1_row 6 1800. ];
  let sel =
    ok_or_fail
      (Bench_diff.compare_files ~normalize:true ~old_path:old_p
         ~new_path:new_p ())
  in
  (match Bench_diff.regressions sel with
  | [ c ] -> Alcotest.(check string) "selective row" "delta=6" c.Bench_diff.c_key
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d"
                           (List.length rs)))

let bench_diff_keys_and_shape () =
  Alcotest.(check (option (float 1e-9))) "1.5x" (Some 1.5)
    (Bench_diff.tolerance_of_string "1.5x");
  Alcotest.(check (option (float 1e-9))) "bare 2" (Some 2.0)
    (Bench_diff.tolerance_of_string "2");
  Alcotest.(check (option (float 1e-9))) "at most 1.0 rejected" None
    (Bench_diff.tolerance_of_string "1.0");
  Alcotest.(check (option (float 1e-9))) "garbage rejected" None
    (Bench_diff.tolerance_of_string "fast");
  with_temp_pair @@ fun old_p new_p ->
  (* Disjoint row sets never gate; they are reported as only-old /
     only-new. Runtime-style rows key on workload/algo/n/domains even
     when a delta column is also present. *)
  let rt workload n domains wall =
    Printf.sprintf
      "{\"workload\": \"%s\", \"algo\": \"israeli-itai\", \"n\": %d, \
       \"domains\": %d, \"delta\": 8, \"wall_ms\": %.3f}"
      workload n domains wall
  in
  write_bench old_p [ rt "biregular-tree" 100000 1 50.; thm1_row 4 10. ];
  write_bench new_p [ rt "biregular-tree" 100000 1 55.; rt "perm-regular" 100000 1 40. ];
  let r =
    ok_or_fail (Bench_diff.compare_files ~old_path:old_p ~new_path:new_p ())
  in
  Alcotest.(check int) "one runtime row joins" 1
    (List.length r.Bench_diff.r_compared);
  (match r.Bench_diff.r_compared with
  | [ c ] ->
    Alcotest.(check string) "runtime join key"
      "biregular-tree/israeli-itai n=100000 domains=1" c.Bench_diff.c_key
  | _ -> ());
  Alcotest.(check (list string)) "only-old rows" [ "delta=4" ]
    r.Bench_diff.r_only_old;
  Alcotest.(check int) "only-new count" 1
    (List.length r.Bench_diff.r_only_new);
  Alcotest.(check int) "subset coverage still passes" 0
    (Bench_diff.exit_code r);
  (* Shape errors surface as Error, not exceptions. *)
  write_bench new_p [ thm1_row 9 1. ];
  (match Bench_diff.compare_files ~old_path:old_p ~new_path:new_p () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "disjoint keys must not compare");
  Out_channel.with_open_text new_p (fun oc ->
      Out_channel.output_string oc "{\"meta\": {}}");
  match Bench_diff.compare_files ~old_path:old_p ~new_path:new_p () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing rows array must error"

(* A runtime row's init_ms is gated like its wall_ms wherever both files
   carry it: same tolerance and minimum, its own median under
   normalization, reported as "<key> [init_ms]". *)
let bench_diff_init_column () =
  with_temp_pair @@ fun old_p new_p ->
  let rt ?init algo wall =
    Printf.sprintf
      "{\"workload\": \"biregular-tree\", \"algo\": \"%s\", \"n\": 100000, \
       \"domains\": 1, \"wall_ms\": %.3f%s}"
      algo wall
      (match init with
      | Some i -> Printf.sprintf ", \"init_ms\": %.3f" i
      | None -> "")
  in
  let key algo = "biregular-tree/" ^ algo ^ " n=100000 domains=1" in
  let compare ?(normalize = false) () =
    ok_or_fail
      (Bench_diff.compare_files ~normalize ~old_path:old_p ~new_path:new_p ())
  in
  write_bench old_p
    [ rt ~init:20. "israeli-itai" 100.; rt ~init:0.5 "davies-peck" 100.;
      rt "panconesi-rizzi" 100. ];
  (* init doubles at unchanged wall; a sub-millisecond init and an init
     only the new file has never gate *)
  write_bench new_p
    [ rt ~init:40. "israeli-itai" 100.; rt ~init:5. "davies-peck" 100.;
      rt ~init:50. "panconesi-rizzi" 100. ];
  let r = compare () in
  Alcotest.(check int) "three wall and two init comparisons" 5
    (List.length r.Bench_diff.r_compared);
  Alcotest.(check int) "init regression exits 1" 1 (Bench_diff.exit_code r);
  Alcotest.(check (list string)) "the doubled init"
    [ key "israeli-itai" ^ " [init_ms]" ]
    (List.map (fun c -> c.Bench_diff.c_key) (Bench_diff.regressions r));
  (* A uniform 2x on init alone cancels under its own median while the
     wall median stays 1. *)
  write_bench old_p
    [ rt ~init:20. "israeli-itai" 100.; rt ~init:30. "davies-peck" 100.;
      rt ~init:40. "panconesi-rizzi" 100. ];
  write_bench new_p
    [ rt ~init:40. "israeli-itai" 100.; rt ~init:60. "davies-peck" 100.;
      rt ~init:80. "panconesi-rizzi" 100. ];
  Alcotest.(check int) "uniform init slowdown caught raw" 1
    (Bench_diff.exit_code (compare ()));
  let norm = compare ~normalize:true () in
  Alcotest.(check (list (pair string (float 1e-9)))) "per-column medians"
    [ ("wall_ms", 1.0); ("init_ms", 2.0) ]
    norm.Bench_diff.r_medians;
  Alcotest.(check int) "uniform init slowdown cancels normalized" 0
    (Bench_diff.exit_code norm)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "well-formed events and JSON export" `Quick
            trace_well_formed;
        ] );
      ( "counters",
        [
          Alcotest.test_case "atomic under Pool.map (4 domains)" `Quick
            counter_atomic_under_pool;
          Alcotest.test_case "snapshot_all / diff" `Quick counter_snapshot_diff;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "CAS max under 4-domain contention" `Quick
            gauge_max_under_contention;
        ] );
      ( "hist",
        [
          Alcotest.test_case "quantiles within the error bound" `Quick
            hist_quantile_error_bound;
          Alcotest.test_case "shards merge across pool domains" `Quick
            hist_merges_across_domains;
          Alcotest.test_case "sink gate and reset" `Quick hist_gate_and_reset;
          Alcotest.test_case "timed_span feeds trace and histogram" `Quick
            hist_timed_span_hook;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "OpenMetrics shape" `Quick openmetrics_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape units" `Quick json_escape_units;
          Alcotest.test_case "hostile names survive export" `Quick
            hostile_names_survive_export;
          Alcotest.test_case "parser accepts artefacts, rejects junk" `Quick
            json_parser;
          Alcotest.test_case "summary carries GC figures" `Quick
            summary_gc_figures;
          Alcotest.test_case "printer units" `Quick json_printer_units;
          Alcotest.test_case "codec pinned by digest" `Quick json_codec_pinned;
          Alcotest.test_case "number literals" `Quick json_number_literals;
          QCheck_alcotest.to_alcotest json_render_round_trip;
        ] );
      ( "provenance",
        [ Alcotest.test_case "git_dirty probe" `Quick provenance_git_dirty ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical files pass" `Quick
            bench_diff_identical_passes;
          Alcotest.test_case "2x slowdown detected" `Quick
            bench_diff_detects_regression;
          Alcotest.test_case "median normalization" `Quick bench_diff_normalize;
          Alcotest.test_case "join keys, tolerance, shape errors" `Quick
            bench_diff_keys_and_shape;
          Alcotest.test_case "init_ms gated per row" `Quick
            bench_diff_init_column;
        ] );
      ( "disabled",
        [ Alcotest.test_case "sink off is a no-op" `Quick disabled_sink_is_noop ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest instrumented_equals_uninstrumented ] );
    ]
