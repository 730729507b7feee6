(* Request handling for `ld serve`: one payload in, one payload out.

   A payload is a JSON array of request objects (the response is an
   equal-length array, in order) or a single object (answered in
   kind). Supported ops:

     {"op":"ping"}                          liveness
     {"op":"probe","delta":D}               build/warm the construction
     {"op":"verify","delta":D,"rounds":R}   truncation verdict
     {"op":"frontier","delta":D}            smallest surviving truncation
     {"op":"stats"}                         counter snapshot
     {"op":"shutdown"}                      ack, then exit the loop

   All constructions are against greedy-by-colour with view checks on —
   the memoised analytic replay ({!Lower_bound.truncated_verdict})
   makes every verify after the first an array read. [handle_payload]
   never raises on malformed input: every error is an
   {"ok":false,"error":...} response. The socket loop lives in
   {!Server}. *)

module LB = Ld_core.Lower_bound
module Cache_store = Ld_core.Cache_store
module Store = Ld_store.Store
module Packing = Ld_matching.Packing
module Obs = Ld_obs.Obs
module Hist = Ld_obs.Hist
module Json = Ld_obs.Json

let c_batches = Obs.Counter.make "serve.batches"
let c_requests = Obs.Counter.make "serve.requests"
let c_errors = Obs.Counter.make "serve.errors"
let c_verdict_hits = Obs.Counter.make "serve.verdict_memo_hits"
let c_cache_builds = Obs.Counter.make "serve.cache_builds"
let h_batch = Hist.make "serve.batch"
let h_decode = Hist.make "serve.decode"
let h_request = Hist.make "serve.request"
let h_encode = Hist.make "serve.encode"

type state = {
  store : Store.t option;
  caches : (int, LB.cache) Hashtbl.t; (* delta -> construction *)
  verdicts : bool option array array;
      (* delta -> min rounds (2 delta + 2) -> certified; a row is
         allocated on the delta's first verdict *)
  max_delta : int;
  mutable shutdown : bool;
}

let create ?store ~max_delta () =
  {
    store;
    caches = Hashtbl.create 16;
    verdicts = Array.make (Stdlib.max 0 (max_delta + 1)) [||];
    max_delta;
    shutdown = false;
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

(* A truncation fails iff some probe's threshold exceeds [rounds], and
   every threshold is the largest colour carrying weight (at most
   delta) or [max_int]. So every [rounds >= 2 delta + 2] has the
   verdict of [2 delta + 2], and the memo keys on [min rounds
   (2 delta + 2)]: at most 2 delta + 3 entries per delta. *)
let verdict state ~delta ~rounds =
  let row =
    match state.verdicts.(delta) with
    | [||] ->
      let row = Array.make ((2 * delta) + 3) None in
      state.verdicts.(delta) <- row;
      row
    | row -> row
  in
  let key = Stdlib.min rounds ((2 * delta) + 2) in
  match row.(key) with
  | Some v ->
    Obs.Counter.incr c_verdict_hits;
    v
  | None ->
    let v =
      match LB.truncated_verdict (get_cache state delta) ~rounds:key with
      | `Certified -> true
      | `Refuted -> false
    in
    row.(key) <- Some v;
    v

let memo_entries state =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc v -> if Option.is_some v then acc + 1 else acc) acc row)
    0 state.verdicts

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
  Hist.timed h_request @@ fun () ->
  match Wire.str_member "op" req with
  | Some "ping" -> ok []
  | Some "probe" ->
    with_delta state req (fun delta ->
        let cache = get_cache state delta in
        let outcome = LB.cache_outcome cache in
        ok
          [
            ("delta", Json.int delta);
            ( "outcome",
              Json.Str
                (match outcome with
                | LB.Certified _ -> "certified"
                | LB.Refuted _ -> "refuted") );
            ("levels", Json.int (LB.max_level outcome + 1));
            ("probes", Json.int (List.length (LB.cache_probes cache)));
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
              ("delta", Json.int delta);
              ("rounds", Json.int rounds);
              ("verdict", Json.Str (if v then "certified" else "refuted"));
            ])
  | Some "frontier" ->
    with_delta state req (fun delta ->
        match frontier state ~delta with
        | Some r -> ok [ ("delta", Json.int delta); ("frontier", Json.int r) ]
        | None -> err "no truncation survives within 2*delta+2")
  | Some "stats" ->
    ok
      [
        ( "counters",
          Json.Obj
            (List.map (fun (name, v) -> (name, Json.int v)) (Obs.Counter.snapshot_all ())) );
        ( "peak_rss_kb",
          match Obs.peak_rss_kb () with Some kb -> Json.int kb | None -> Json.Null );
      ]
  | Some "shutdown" ->
    state.shutdown <- true;
    ok []
  | Some op -> err "unknown op %S" op
  | None -> err "missing \"op\""

let handle_payload state payload =
  Obs.Counter.incr c_batches;
  Hist.timed h_batch @@ fun () ->
  let response =
    match Hist.timed h_decode (fun () -> Json.parse payload) with
    | Json.Arr reqs -> Json.Arr (List.map (handle_request state) reqs)
    | Json.Obj _ as req -> handle_request state req
    | _ ->
      Obs.Counter.incr c_errors;
      err "expected a request object or array"
    | exception Json.Parse_error (msg, pos) ->
      Obs.Counter.incr c_errors;
      err "parse error: %s at byte %d" msg pos
  in
  Hist.timed h_encode (fun () -> Json.render response)
