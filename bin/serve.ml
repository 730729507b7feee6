(* `ld serve` — long-running certificate service over a TCP socket.

   Clients speak the {!Ld_net.Wire} protocol: one frame is a JSON
   array of request objects and the response is an equal-length array,
   in order. {!Ld_net.Service} answers a payload and keeps the verdict
   memo, shared by every connection; a persistent {!Ld_store.Store}
   (unless [--no-store]) makes constructions survive restarts. This
   file sets up the store and the preload ([--preload] fans the
   per-delta builds over the {!Ld_pool.Pool} domains, so the first
   client never pays a cold build), binds the listeners (/metrics
   first, so a client that reaches the wire port finds it up) and
   hands them to {!Ld_net.Server}, the one event loop. *)

module Cache_store = Ld_core.Cache_store
module Store = Ld_store.Store
module Obs = Ld_obs.Obs
module Service = Ld_net.Service
module Server = Ld_net.Server

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
  let metrics = Option.map Server.listen metrics_port in
  Option.iter (fun p -> Logs.app (fun m -> m "serving OpenMetrics on http://127.0.0.1:%d/metrics" p)) metrics_port;
  let wire = Server.listen port in
  Logs.app (fun m ->
      m "ld serve: listening on 127.0.0.1:%d (store: %s, max delta %d)" port
        (match store with Some s -> Store.dir s | None -> "disabled")
        max_delta);
  Server.run state ~wire ~metrics;
  Logs.app (fun m ->
      m "ld serve: shutdown after %d batches" (Obs.Counter.value Service.c_batches));
  0
