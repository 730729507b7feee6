(* `ld serve` — long-running certificate service over a Unix socket.

   Clients speak the {!Wire} protocol: one frame is a JSON array of
   request objects and the response is an equal-length array, in
   order. Supported ops:

     {"op":"ping"}                          liveness
     {"op":"probe","delta":D}               build/warm the construction
     {"op":"verify","delta":D,"rounds":R}   truncation verdict
     {"op":"frontier","delta":D}            smallest surviving truncation
     {"op":"stats"}                         counter snapshot
     {"op":"shutdown"}                      ack, then exit the loop

   All constructions are against greedy-by-colour with view checks on —
   the memoised analytic replay ({!Lower_bound.truncated_verdict})
   makes every verify after the first a hash lookup plus one threshold
   comparison. The memo tables live in the single event-loop domain
   and are shared by every connection; a persistent {!Ld_store.Store}
   (unless [--no-store]) makes constructions survive restarts.

   The loop is a single-domain [Unix.select] state machine: reads are
   non-blocking-by-readiness and reassembled per connection, responses
   are written synchronously (they are small; a stalled reader stalls
   only its own batch stream). [--preload] fans the per-delta
   construction work over the {!Ld_pool.Pool} domains before the
   socket opens, so the first client never pays a cold build. *)

module LB = Ld_core.Lower_bound
module Cache_store = Ld_core.Cache_store
module Store = Ld_store.Store
module Packing = Ld_matching.Packing
module Obs = Ld_obs.Obs
module Json = Ld_obs.Json

let c_conns = Obs.Counter.make "serve.connections"
let c_batches = Obs.Counter.make "serve.batches"
let c_requests = Obs.Counter.make "serve.requests"
let c_errors = Obs.Counter.make "serve.errors"
let c_verdict_hits = Obs.Counter.make "serve.verdict_memo_hits"
let c_cache_builds = Obs.Counter.make "serve.cache_builds"
let h_batch = Ld_obs.Hist.make "serve.batch"
let h_request = Ld_obs.Hist.make "serve.request"

type state = {
  store : Store.t option;
  caches : (int, LB.cache) Hashtbl.t; (* delta -> construction *)
  verdicts : (int * int, bool) Hashtbl.t; (* (delta, rounds) -> certified *)
  max_delta : int;
  mutable shutdown : bool;
}

let algo = Packing.greedy_algorithm

let get_cache state delta =
  match Hashtbl.find_opt state.caches delta with
  | Some c -> c
  | None ->
    Obs.Counter.incr c_cache_builds;
    let c = Cache_store.build_cache ?store:state.store ~delta algo in
    Hashtbl.replace state.caches delta c;
    c

let verdict state ~delta ~rounds =
  match Hashtbl.find_opt state.verdicts (delta, rounds) with
  | Some v ->
    Obs.Counter.incr c_verdict_hits;
    v
  | None ->
    let cache = get_cache state delta in
    let v =
      match LB.truncated_verdict cache ~rounds with
      | `Certified -> true
      | `Refuted -> false
    in
    Hashtbl.replace state.verdicts (delta, rounds) v;
    v

let frontier state ~delta =
  let rec scan r =
    if r > (2 * delta) + 2 then None
    else if verdict state ~delta ~rounds:r then Some r
    else scan (r + 1)
  in
  scan 0

(* ---- request handling ---- *)

let err fmt = Printf.ksprintf (fun m -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str m) ]) fmt
let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let with_delta state req f =
  match Wire.int_member "delta" req with
  | None -> err "missing or non-integer \"delta\""
  | Some delta when delta < 2 || delta > state.max_delta ->
    err "delta %d out of range [2, %d]" delta state.max_delta
  | Some delta -> f delta

let handle_request state req =
  Obs.Counter.incr c_requests;
  Ld_obs.Hist.timed h_request @@ fun () ->
  match Wire.str_member "op" req with
  | Some "ping" -> ok []
  | Some "probe" ->
    with_delta state req (fun delta ->
        let cache = get_cache state delta in
        let outcome = LB.cache_outcome cache in
        ok
          [
            ("delta", Json.Num (float_of_int delta));
            ( "outcome",
              Json.Str
                (match outcome with
                | LB.Certified _ -> "certified"
                | LB.Refuted _ -> "refuted") );
            ("levels", Json.Num (float_of_int (LB.max_level outcome + 1)));
            ( "probes",
              Json.Num (float_of_int (List.length (LB.cache_probes cache))) );
          ])
  | Some "verify" ->
    with_delta state req (fun delta ->
        match Wire.int_member "rounds" req with
        | None -> err "missing or non-integer \"rounds\""
        | Some rounds when rounds < 0 -> err "negative \"rounds\""
        | Some rounds ->
          let v = verdict state ~delta ~rounds in
          ok
            [
              ("delta", Json.Num (float_of_int delta));
              ("rounds", Json.Num (float_of_int rounds));
              ("verdict", Json.Str (if v then "certified" else "refuted"));
            ])
  | Some "frontier" ->
    with_delta state req (fun delta ->
        match frontier state ~delta with
        | Some r ->
          ok
            [
              ("delta", Json.Num (float_of_int delta));
              ("frontier", Json.Num (float_of_int r));
            ]
        | None -> err "no truncation survives within 2*delta+2")
  | Some "stats" ->
    ok
      [
        ( "counters",
          Json.Obj
            (List.map
               (fun (name, v) -> (name, Json.Num (float_of_int v)))
               (Obs.Counter.snapshot_all ())) );
        ( "peak_rss_kb",
          match Obs.peak_rss_kb () with
          | Some kb -> Json.Num (float_of_int kb)
          | None -> Json.Null );
      ]
  | Some "shutdown" ->
    state.shutdown <- true;
    ok []
  | Some op -> err "unknown op %S" op
  | None -> err "missing \"op\""

let handle_payload state payload =
  Obs.Counter.incr c_batches;
  Ld_obs.Hist.timed h_batch @@ fun () ->
  match Json.parse payload with
  | Json.Arr reqs ->
    Json.render (Json.Arr (List.map (handle_request state) reqs))
  | Json.Obj _ as req ->
    (* Single-object convenience: respond in kind. *)
    Json.render (handle_request state req)
  | _ ->
    Obs.Counter.incr c_errors;
    Json.render (err "expected a request object or array")
  | exception Json.Parse_error (msg, pos) ->
    Obs.Counter.incr c_errors;
    Json.render (err "parse error: %s at byte %d" msg pos)

(* ---- connection state machine ---- *)

type conn = {
  fd : Unix.file_descr;
  hdr : Bytes.t;
  mutable hdr_got : int;
  mutable body : Bytes.t;
  mutable body_want : int; (* -1 while the header is incomplete *)
  mutable body_got : int;
}

let new_conn fd =
  { fd; hdr = Bytes.create 4; hdr_got = 0; body = Bytes.empty;
    body_want = -1; body_got = 0 }

let complete state conn payload =
  conn.hdr_got <- 0;
  conn.body_want <- -1;
  conn.body <- Bytes.empty;
  conn.body_got <- 0;
  Wire.send conn.fd (handle_payload state payload)

(* One readiness-driven read; [`Dead] when the peer is gone or the
   stream is unframeable. *)
let on_readable state conn =
  match
    if conn.body_want < 0 then begin
      let n = Unix.read conn.fd conn.hdr conn.hdr_got (4 - conn.hdr_got) in
      if n = 0 then raise Wire.Closed;
      conn.hdr_got <- conn.hdr_got + n;
      if conn.hdr_got = 4 then begin
        let want = Int32.to_int (Bytes.get_int32_be conn.hdr 0) in
        if want < 0 || want > Wire.max_frame then
          failwith "bad frame length";
        if want = 0 then complete state conn ""
        else begin
          conn.body_want <- want;
          conn.body <- Bytes.create want;
          conn.body_got <- 0
        end
      end
    end
    else begin
      let n =
        Unix.read conn.fd conn.body conn.body_got
          (conn.body_want - conn.body_got)
      in
      if n = 0 then raise Wire.Closed;
      conn.body_got <- conn.body_got + n;
      if conn.body_got = conn.body_want then
        complete state conn (Bytes.to_string conn.body)
    end
  with
  | () -> `Alive
  | exception Wire.Closed -> `Dead
  | exception Unix.Unix_error _ -> `Dead
  | exception Failure _ ->
    Obs.Counter.incr c_errors;
    `Dead

let close_quietly fd =
  match Unix.close fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let run ~port ~store_dir ~no_store ~max_delta ~preload ~metrics_port () =
  Obs.enable ();
  (* Long-running: keep the numeric instruments, drop the span log. *)
  Obs.set_span_recording false;
  let store =
    if no_store then None else Some (Store.open_store ?dir:store_dir ())
  in
  let state =
    { store; caches = Hashtbl.create 16; verdicts = Hashtbl.create 256;
      max_delta; shutdown = false }
  in
  (match preload with
  | None -> ()
  | Some upto ->
    let upto = Stdlib.min upto max_delta in
    let deltas = List.init (Stdlib.max 0 (upto - 1)) (fun i -> i + 2) in
    Logs.app (fun m ->
        m "preloading constructions for delta=2..%d over %d domains" upto
          (Ld_pool.Pool.default_domains ()));
    let built =
      Ld_pool.Pool.map
        (fun delta ->
          (delta, Cache_store.build_cache ?store ~delta algo))
        deltas
    in
    List.iter (fun (d, c) -> Hashtbl.replace state.caches d c) built);
  (match metrics_port with
  | None -> ()
  | Some p ->
    ignore
      (Domain.spawn (fun () ->
           Ld_obs.Openmetrics.serve ~port:p (fun () ->
               Ld_obs.Openmetrics.render ()))
        : unit Domain.t);
    Logs.app (fun m ->
        m "serving OpenMetrics on http://127.0.0.1:%d/metrics" p));
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  Logs.app (fun m ->
      m "ld serve: listening on 127.0.0.1:%d (store: %s, max delta %d)" port
        (match store with Some s -> Store.dir s | None -> "disabled")
        max_delta);
  let conns = ref [] in
  while not state.shutdown do
    let fds = sock :: List.map (fun c -> c.fd) !conns in
    let readable, _, _ = Unix.select fds [] [] 1.0 in
    if List.mem sock readable then begin
      let fd, _ = Unix.accept sock in
      Obs.Counter.incr c_conns;
      conns := new_conn fd :: !conns
    end;
    conns :=
      List.filter
        (fun conn ->
          if not (List.mem conn.fd readable) then true
          else
            match on_readable state conn with
            | `Alive -> true
            | `Dead ->
              close_quietly conn.fd;
              false)
        !conns
  done;
  List.iter (fun c -> close_quietly c.fd) !conns;
  close_quietly sock;
  Logs.app (fun m ->
      m "ld serve: shutdown after %d batches" (Obs.Counter.value c_batches));
  0
