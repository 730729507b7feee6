(* `ld serve` — long-running certificate service over a TCP socket.

   Clients speak the {!Ld_net.Wire} protocol: one frame is a JSON
   array of request objects and the response is an equal-length
   array, in order. {!Ld_net.Service} answers a payload (the ops, the
   verdict memo); this file is the socket loop around it. The memo
   tables live in the single event-loop domain and are shared by every
   connection; a persistent {!Ld_store.Store} (unless [--no-store])
   makes constructions survive restarts.

   The loop is a single-domain [Unix.select] loop: each readable
   connection gets one read into its {!Ld_net.Wire.Framer}, which owns
   the frame format, the length cap and the body buffer. A header above
   the cap ([Wire.Bad_frame]) counts in [serve.errors] and drops its
   connection; a peer that closes mid-frame is dropped silently.
   Responses are written synchronously with a blocking write. They are
   small, but a client that keeps sending batches and never reads the
   responses fills the socket buffers and then blocks the whole loop.
   [--preload] fans the per-delta construction work over the
   {!Ld_pool.Pool} domains before the socket opens, so the first
   client never pays a cold build.

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

(* ---- connections ---- *)

type conn = { fd : Unix.file_descr; framer : Wire.Framer.t }

(* One readiness-driven read into the connection's {!Wire.Framer};
   [`Dead] when the peer is gone or the stream is unframeable. *)
let on_readable state conn =
  match
    let buf, off, len = Wire.Framer.space conn.framer in
    let n = Hist.timed h_read (fun () -> Unix.read conn.fd buf off len) in
    match Wire.Framer.advance conn.framer n with
    | None -> ()
    | Some payload ->
      let response = Service.handle_payload state payload in
      Hist.timed h_write (fun () -> Wire.send conn.fd response)
  with
  | () -> `Alive
  | exception (Wire.Closed | Unix.Unix_error _) -> `Dead
  | exception Wire.Bad_frame _ ->
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
      conns := { fd; framer = Wire.Framer.create () } :: !conns
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
