(* Prometheus / OpenMetrics text exposition of the whole registry:
   counters as `<name>_total`, gauges plain, histograms as cumulative
   `_bucket{le=...}` / `_sum` / `_count` families with durations
   converted from the internal nanoseconds to seconds (the Prometheus
   base unit). Metric names are `ld_` + the registry name with every
   byte outside [a-zA-Z0-9_:] mapped to '_', so dotted registry names
   like `core.lb.probe` expose as `ld_core_lb_probe`.

   This module is the health endpoint the certificate service mounts:
   `ld adversary --format openmetrics` prints one scrape, and
   `ld serve --metrics-port PORT` answers GET /metrics on 127.0.0.1
   from its one socket loop, with [respond] choosing the answer. *)

let metric_name name =
  "ld_" ^ String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_') name

let render () =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let scalars kind suffix =
    List.iter (fun (name, v) -> let m = metric_name name in add "# TYPE %s %s\n%s%s %d\n" m kind m suffix v)
  in
  scalars "counter" "_total" (Obs.counters ());
  scalars "gauge" "" (Obs.gauges ());
  Option.iter
    (add "# TYPE ld_process_peak_rss_kilobytes gauge\nld_process_peak_rss_kilobytes %d\n")
    (Obs.peak_rss_kb ());
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

(* One HTTP/1.1 exchange per connection, Connection: close. The socket
   loop ({!Ld_net.Server}) collects a request head of at most
   [max_head] bytes and calls [respond] after every read: [None] until
   the head holds a blank line or fills [max_head], then the answer,
   with the scrape rendered live. *)

let max_head = 4096

let http_response status body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let respond head =
  let len = String.length head in
  let rec blank_line i =
    i + 3 < len && (String.sub head i 4 = "\r\n\r\n" || blank_line (i + 1))
  in
  if len < max_head && not (blank_line 0) then None
  else
    let line = List.hd (String.split_on_char '\r' head) in
    Some
      (match String.split_on_char ' ' line with
      | "GET" :: ("/metrics" | "/") :: _ -> http_response "200 OK" (render ())
      | _ -> http_response "404 Not Found" "not found\n")
