(* `ld serve` — long-running certificate service over a TCP socket.

   Clients speak the {!Ld_net.Wire} protocol: one frame is a JSON
   array of request objects and the response is an equal-length
   array, in order. {!Ld_net.Service} answers a payload (the ops, the
   verdict memo); this file is the socket loop around it. The memo
   tables live in the single event-loop domain and are shared by every
   connection; a persistent {!Ld_store.Store} (unless [--no-store])
   makes constructions survive restarts.

   The loop is a single-domain [Unix.select] state machine: reads are
   non-blocking-by-readiness and reassembled per connection, responses
   are written synchronously (they are small; a stalled reader stalls
   only its own batch stream). [--preload] fans the per-delta
   construction work over the {!Ld_pool.Pool} domains before the
   socket opens, so the first client never pays a cold build.

   Stage histograms: [serve.read] times each read syscall,
   [serve.write] each framed response; the decode, per-request lookup
   and encode stages inside [serve.batch] are timed in
   {!Ld_net.Service}. *)

module Cache_store = Ld_core.Cache_store
module Store = Ld_store.Store
module Obs = Ld_obs.Obs
module Hist = Ld_obs.Hist
module Wire = Ld_net.Wire
module Service = Ld_net.Service

let c_conns = Obs.Counter.make "serve.connections"
let h_read = Hist.make "serve.read"
let h_write = Hist.make "serve.write"

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
  let response = Service.handle_payload state payload in
  Hist.timed h_write (fun () -> Wire.send conn.fd response)

(* One readiness-driven read; [`Dead] when the peer is gone or the
   stream is unframeable. *)
let on_readable state conn =
  match
    if conn.body_want < 0 then begin
      let n =
        Hist.timed h_read (fun () ->
            Unix.read conn.fd conn.hdr conn.hdr_got (4 - conn.hdr_got))
      in
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
        Hist.timed h_read (fun () ->
            Unix.read conn.fd conn.body conn.body_got
              (conn.body_want - conn.body_got))
      in
      if n = 0 then raise Wire.Closed;
      conn.body_got <- conn.body_got + n;
      if conn.body_got = conn.body_want then
        (* No copy: [complete] drops [conn.body] before the payload is
           read, and nothing writes those bytes again. *)
        complete state conn (Bytes.unsafe_to_string conn.body)
    end
  with
  | () -> `Alive
  | exception Wire.Closed -> `Dead
  | exception Unix.Unix_error _ -> `Dead
  | exception Failure _ ->
    Obs.Counter.incr Service.c_errors;
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
  let state = Service.create ?store ~max_delta () in
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
          (delta, Cache_store.build_cache ?store ~delta Service.algo))
        deltas
    in
    List.iter (fun (d, c) -> Hashtbl.replace state.Service.caches d c) built);
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
  while not state.Service.shutdown do
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
      m "ld serve: shutdown after %d batches" (Obs.Counter.value Service.c_batches));
  0
