(* `ld load` — closed-loop load harness for `ld serve`.

   Replays verification requests against a running server: C
   connections each keep exactly one batch of B requests in flight
   (closed loop — a connection sends its next batch only when the
   previous response lands), so concurrency is C batches and the
   request stream is deterministic for a given --seed. Key skew draws
   deltas from a power law (small deltas hot, exponent --skew) and
   truncation rounds uniformly from [0, delta+2], mixing certified and
   refuted verdicts.

   A warmup pass probes every delta in the mix first, so the server
   builds (or warm-loads) each construction outside the timed window —
   the timed phase measures the service, not a cold cache. Batch
   round-trips land in the [load.rtt] histogram; every request in a
   batch waited the batch's round-trip, so its quantiles are the
   per-request latency figures. Results go to BENCH_SERVE.json with
   the shared {!Ld_obs.Provenance} metadata; the single `rows` entry
   keys on `op` so `ld bench-diff` joins it against a committed
   baseline. *)

module Obs = Ld_obs.Obs
module Json = Ld_obs.Json
module Provenance = Ld_obs.Provenance
module Wire = Ld_net.Wire

let h_rtt = Ld_obs.Hist.make "load.rtt"
let c_sent = Obs.Counter.make "load.requests_sent"
let c_failures = Obs.Counter.make "load.failures"

(* Deterministic splitmix64 stream — the repo bans [Random] outside
   sanctioned modules, and the request stream must be reproducible from
   --seed alone. *)
let mix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform state =
  Int64.to_float (Int64.shift_right_logical (mix state) 11)
  *. (1.0 /. 9007199254740992.0)

(* delta ~ power law over [2, max_delta]: weight 1/(delta-1)^skew. *)
let delta_sampler ~max_delta ~skew =
  let n = max_delta - 1 in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) skew);
    cum.(i) <- !total
  done;
  fun state ->
    let u = uniform state *. !total in
    let rec find i = if i >= n - 1 || cum.(i) >= u then i + 2 else find (i + 1) in
    find 0

type conn = {
  fd : Unix.file_descr;
  mutable sent_at : int64;
  mutable in_flight : int; (* requests in the outstanding batch; 0 = idle *)
}

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* One small frame per round-trip: Nagle would serialise the closed
     loop at 40ms ticks. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let request ~port v =
  let fd = connect ~port in
  Fun.protect
    ~finally:(fun () ->
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () ->
      Wire.send fd (Json.render v);
      Json.parse (Wire.recv fd))

let int_counter kvs name =
  match List.assoc_opt name kvs with
  | Some (Json.Num f) -> int_of_float f
  | _ -> 0

let emit ~path ~quick ~nconns ~batch ~max_delta ~skew ~seed ~requests
    ~wall_ms ~rps ~p50 ~p99 ~pmax ~certified ~refuted ~failures
    ~server_counters ~server_rss =
  let counter name = Json.int (int_counter server_counters name) in
  let verdict_hits = int_counter server_counters "serve.verdict_memo_hits" in
  Json.write_file path
    (Json.Obj
       [
         ("bench", Json.Str "linear-delta-local certificate service");
         ( "meta",
           Json.Obj
             (Provenance.json_meta_fields (Provenance.capture ())
             @ [
                 ("quick", Json.Bool quick);
                 ("conns", Json.int nconns);
                 ("batch", Json.int batch);
                 ("max_delta", Json.int max_delta);
                 ("skew", Json.Num skew);
                 ("seed", Json.int seed);
               ]) );
         (* The joinable row: `op` (the only non-measure field) is the
            key, so quick and full artefacts land on the same row for
            bench-diff. *)
         ( "rows",
           Json.Arr
             [ Json.Obj [ ("op", Json.Str "verify"); ("wall_ms", Json.Num wall_ms) ] ]
         );
         ( "results",
           Json.Obj
             [
               ("requests", Json.int requests);
               ("rps", Json.Num rps);
               ("p50_ms", Json.Num p50);
               ("p99_ms", Json.Num p99);
               ("max_ms", Json.Num pmax);
               ("certified", Json.int certified);
               ("refuted", Json.int refuted);
               ("failures", Json.int failures);
               ( "verdict_hit_ratio",
                 Json.Num
                   (float_of_int verdict_hits
                   /. float_of_int (Stdlib.max 1 requests)) );
               ("store_hits", counter "store.hits");
               ("store_misses", counter "store.misses");
               ("store_corrupt", counter "store.corrupt");
               ("server_peak_rss_kb", Json.int (Option.value ~default:0 server_rss));
               ( "peak_rss_kb",
                 Json.int (Option.value ~default:0 (Obs.peak_rss_kb ())) );
             ] );
       ])

let run ~port ~conns:nconns ~batch ~requests ~max_delta ~skew ~seed ~quick
    ~out ~shutdown () =
  Obs.enable ();
  Obs.set_span_recording false;
  let requests = if quick then Stdlib.min requests 100_000 else requests in
  let nconns = Stdlib.max 1 (if quick then Stdlib.min nconns 4 else nconns) in
  let batch = Stdlib.max 1 batch in
  if max_delta < 2 then invalid_arg "ld load: --max-delta < 2";
  (* Warmup: build/warm every construction in the mix outside the timed
     window, and fail fast, with one line and exit 2, if no server is
     listening or it refuses a delta of the mix. *)
  let refuse fmt = Printf.ksprintf (fun m -> prerr_endline ("ld load: " ^ m); exit 2) fmt in
  (match
     request ~port
       (Json.Arr
          (List.init (max_delta - 1) (fun i ->
               Json.Obj
                 [
                   ("op", Json.Str "probe");
                   ("delta", Json.Num (float_of_int (i + 2)));
                 ])))
   with
  | Json.Arr resps when List.length resps = max_delta - 1 ->
    List.iteri
      (fun i r ->
        match Json.member "ok" r with
        | Some (Json.Bool true) -> ()
        | _ ->
          refuse "server refused the warmup probe for delta %d: %s" (i + 2)
            (Option.value (Wire.str_member "error" r) ~default:(Json.render r)))
      resps
  | other -> refuse "unexpected warmup response: %s" (Json.render other)
  | exception Unix.Unix_error (e, _, _) ->
    refuse "cannot reach server on 127.0.0.1:%d: %s" port (Unix.error_message e));
  let prng = ref (Int64.of_int seed) in
  let draw_delta = delta_sampler ~max_delta ~skew in
  let build_batch n =
    Json.render
      (Json.Arr
         (List.init n (fun _ ->
              let delta = draw_delta prng in
              let rounds =
                int_of_float (uniform prng *. float_of_int (delta + 3))
              in
              Json.Obj
                [
                  ("op", Json.Str "verify");
                  ("delta", Json.Num (float_of_int delta));
                  ("rounds", Json.Num (float_of_int rounds));
                ])))
  in
  let conns =
    List.init nconns (fun _ ->
        { fd = connect ~port; sent_at = 0L; in_flight = 0 })
  in
  let total_batches = (requests + batch - 1) / batch in
  let issued = ref 0 and completed = ref 0 in
  let certified = ref 0 and refuted = ref 0 in
  let send_next conn =
    if !issued < total_batches then begin
      let n = Stdlib.min batch (requests - (!issued * batch)) in
      incr issued;
      conn.in_flight <- n;
      conn.sent_at <- Obs.now_ns ();
      Wire.send conn.fd (build_batch n);
      Obs.Counter.add c_sent n
    end
  in
  let t0 = Obs.now_ms () in
  List.iter send_next conns;
  while !completed < total_batches do
    let busy = List.filter (fun c -> c.in_flight > 0) conns in
    let readable, _, _ =
      Unix.select (List.map (fun c -> c.fd) busy) [] [] 5.0
    in
    List.iter
      (fun c ->
        if List.mem c.fd readable then begin
          let resp = Wire.recv c.fd in
          Ld_obs.Hist.observe h_rtt
            (Int64.to_int (Int64.sub (Obs.now_ns ()) c.sent_at));
          (match Json.parse resp with
          | Json.Arr rs ->
            List.iter
              (fun r ->
                match (Json.member "ok" r, Wire.str_member "verdict" r) with
                | Some (Json.Bool true), Some "certified" -> incr certified
                | Some (Json.Bool true), Some "refuted" -> incr refuted
                | _ -> Obs.Counter.incr c_failures)
              rs;
            if List.length rs <> c.in_flight then
              Obs.Counter.incr c_failures
          | _ -> Obs.Counter.add c_failures c.in_flight);
          incr completed;
          c.in_flight <- 0;
          send_next c
        end)
      busy
  done;
  let wall_ms = Obs.now_ms () -. t0 in
  (* Server-side counters (memo hits, store traffic, peak RSS) over a
     fresh connection so the loaded ones can close cleanly. *)
  let server_counters, server_rss =
    match request ~port (Json.Obj [ ("op", Json.Str "stats") ]) with
    | resp -> (
      ( (match Json.member "counters" resp with
        | Some (Json.Obj kvs) -> kvs
        | _ -> []),
        match Json.member "peak_rss_kb" resp with
        | Some (Json.Num f) -> Some (int_of_float f)
        | _ -> None ))
    | exception Unix.Unix_error _ -> ([], None)
  in
  if shutdown then
    ignore (request ~port (Json.Obj [ ("op", Json.Str "shutdown") ]) : Json.value);
  List.iter
    (fun c ->
      match Unix.close c.fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    conns;
  let sn = Ld_obs.Hist.snapshot h_rtt in
  let p50 = Ld_obs.Hist.quantile_ms sn 0.5 in
  let p99 = Ld_obs.Hist.quantile_ms sn 0.99 in
  let pmax = Ld_obs.Hist.max_ms sn in
  let rps = float_of_int requests /. (wall_ms /. 1000.) in
  let failures = Obs.Counter.value c_failures in
  Printf.printf
    "ld load: %d requests over %d conns (batch %d) in %.1f ms\n\
    \  throughput %.0f req/s\n\
    \  batch round-trip p50 %.3f ms  p99 %.3f ms  max %.3f ms\n\
    \  verdicts: %d certified, %d refuted, %d failures\n"
    requests nconns batch wall_ms rps p50 p99 pmax !certified !refuted
    failures;
  emit ~path:out ~quick ~nconns ~batch ~max_delta ~skew ~seed ~requests
    ~wall_ms ~rps ~p50 ~p99 ~pmax ~certified:!certified ~refuted:!refuted
    ~failures ~server_counters ~server_rss;
  Printf.printf "wrote %s\n" out;
  if failures = 0 then 0 else 1
