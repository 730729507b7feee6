(* Prometheus / OpenMetrics text exposition of the whole registry:
   counters as `<name>_total`, gauges plain, histograms as cumulative
   `_bucket{le=...}` / `_sum` / `_count` families with durations
   converted from the internal nanoseconds to seconds (the Prometheus
   base unit). Metric names are `ld_` + the registry name with every
   byte outside [a-zA-Z0-9_:] mapped to '_', so dotted registry names
   like `core.lb.probe` expose as `ld_core_lb_probe`.

   This module is the health endpoint the certificate service mounts
   (ROADMAP § certificate service): `ld adversary --format openmetrics`
   prints one scrape, `ld serve --metrics-port PORT` answers GET
   /metrics over a minimal HTTP/1.1 loop on plain Unix sockets — no
   dependencies. Like `ld serve` itself, it binds 127.0.0.1 only. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let metric_name name = "ld_" ^ sanitize name

let render () =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      add "# TYPE %s counter\n" m;
      add "%s_total %d\n" m v)
    (Obs.counters ());
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      add "# TYPE %s gauge\n" m;
      add "%s %d\n" m v)
    (Obs.gauges ());
  (match Obs.peak_rss_kb () with
  | Some kb ->
    add "# TYPE ld_process_peak_rss_kilobytes gauge\n";
    add "ld_process_peak_rss_kilobytes %d\n" kb
  | None -> ());
  List.iter
    (fun (sn : Hist.snapshot) ->
      let m = metric_name sn.Hist.sn_name ^ "_seconds" in
      add "# TYPE %s histogram\n" m;
      Array.iter
        (fun (idx, cum) ->
          let _, up = Hist.bucket_bounds idx in
          add "%s_bucket{le=\"%.9g\"} %d\n" m (float_of_int up /. 1e9) cum)
        sn.Hist.sn_buckets;
      add "%s_bucket{le=\"+Inf\"} %d\n" m sn.Hist.sn_count;
      add "%s_sum %.9g\n" m (float_of_int sn.Hist.sn_sum /. 1e9);
      add "%s_count %d\n" m sn.Hist.sn_count)
    (Hist.snapshots_all ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Minimal HTTP GET loop. One request per connection, Connection:
   close; [body] is re-rendered per scrape so the figures are live.
   [max_requests] bounds the loop for tests; the default serves until
   the process dies. *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status (String.length body) body

let handle_client fd body =
  (try
     let buf = Bytes.create 4096 in
     let n = Unix.read fd buf 0 4096 in
     let req = if n > 0 then Bytes.sub_string buf 0 n else "" in
     let first_line =
       match String.index_opt req '\r' with
       | Some i -> String.sub req 0 i
       | None -> req
     in
     let resp =
       match String.split_on_char ' ' first_line with
       | "GET" :: path :: _ when path = "/metrics" || path = "/" ->
         http_response ~status:"200 OK" ~body:(body ())
       | _ -> http_response ~status:"404 Not Found" ~body:"not found\n"
     in
     ignore (Unix.write_substring fd resp 0 (String.length resp))
   with
   (* ld-lint: allow exn-swallow — torn-down client must not kill the loop *)
   | _ -> ());
  (* ld-lint: allow exn-swallow — double-close on a dead fd is fine *)
  try Unix.close fd with _ -> ()

let serve ?(max_requests = -1) ~port body =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 16;
  let served = ref 0 in
  while max_requests < 0 || !served < max_requests do
    let fd, _ = Unix.accept sock in
    handle_client fd body;
    incr served
  done;
  Unix.close sock
