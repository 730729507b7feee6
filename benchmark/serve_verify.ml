(* serve-verify: `ld serve` answering truncation verdicts. Set-up starts
   the server on free ports with every construction it may be asked
   about preloaded (delta 2..8, no store), and waits until it accepts
   connections. The server runs with LD_DOMAINS=1: preloading those
   small deltas over two domains only adds domain spawns whose timing
   makes start-up time and the server's peak RSS vary run to run. The load is a closed loop — certificate clients wait
   for their replies — of 64-request batches, one batch in flight per
   connection, with delta drawn with weight 1/(delta-1) from [2, 8]
   and rounds uniform in [0, delta+2], from a splitmix64 stream seeded
   by --seed. work_s is measured with one connection: with two, the
   client and the server run on different cores and the calibration
   kernel (Harness.kernel) sees only the client's, which left the
   2-connection time three times as noisy run to run. Traced runs also
   time two connections for par.speedup_2way. *)

module Json = Ld_obs.Json
module Obs = Ld_obs.Obs
open Harness

let ld_exe = "_build/default/bin/ld.exe"
let max_delta = 8
let batch = 64

(* ---- sockets and frames (4-byte big-endian length, JSON body) ---- *)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (loopback 0);
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (loopback port) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  | exception e ->
    Unix.close fd;
    raise e

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

let rec read_exact fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then failwith "server closed the connection";
    read_exact fd b (off + n) (len - n)
  end

let read_frame fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if n < 0 || n > 1 lsl 26 then failwith "bad frame length";
  let b = Bytes.create n in
  read_exact fd b 0 n;
  Bytes.unsafe_to_string b

let request port v =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_frame fd (Render.render v);
      Json.parse (read_frame fd))

let op name = Json.Obj [ ("op", str name) ]

(* ---- the server process ---- *)

type server = { pid : int; port : int; metrics_port : int; log : string }

let wait_exit pid ~timeout =
  let t0 = now_ns () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when since t0 < timeout ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status)
    | _ -> ()
  in
  go ()

(* Starts a server and returns once it accepts connections; the time
   this takes is the workload's set-up. *)
let start ctx i =
  if not (Sys.file_exists ld_exe) then failwith (ld_exe ^ " is missing: build bin/ld.exe");
  let port = free_port () and metrics_port = free_port () in
  let log = Filename.concat ctx.scratch (Printf.sprintf "server%d.log" i) in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process_env ld_exe
      [|
        ld_exe; "serve"; "--no-store"; "--max-delta"; string_of_int max_delta;
        "--preload"; string_of_int max_delta; "--port"; string_of_int port;
        "--metrics-port"; string_of_int metrics_port;
      |]
      (env_with ~domains:1) Unix.stdin out out
  in
  Unix.close out;
  let srv = { pid; port; metrics_port; log } in
  let rec ready () =
    match connect port with
    | fd -> Unix.close fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("ld serve exited during start-up; see " ^ log));
      if since t0 > 60. then begin
        wait_exit pid ~timeout:0.;
        failwith "ld serve did not start within 60 s"
      end;
      Unix.sleepf 0.0002;
      ready ()
  in
  ready ();
  (srv, since t0)

let stop srv =
  (match request srv.port (op "shutdown") with
  | _ -> ()
  | exception (Unix.Unix_error _ | Failure _) -> ());
  wait_exit srv.pid ~timeout:10.

(* ---- OpenMetrics scrapes ---- *)

let scrape srv =
  let fd = connect srv.metrics_port in
  let text =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
        write_all fd (Bytes.of_string req) 0 (String.length req);
        read_all fd)
  in
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      if String.length line = 0 || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
          Option.map
            (fun v -> (String.sub line 0 i, v))
            (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
    lines

let series scrape name = Option.value ~default:0. (List.assoc_opt name scrape)

(* (upper bound in seconds, cumulative count) of a histogram family. *)
let buckets scrape family =
  let prefix = family ^ "_bucket{le=\"" in
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        let le = String.sub name (String.length prefix) (String.length name - String.length prefix - 2) in
        Some ((if String.equal le "+Inf" then Float.infinity else float_of_string le), v)
      else None)
    scrape

(* A quantile (bucket upper bound, seconds) of what a family recorded
   between two scrapes. *)
let window_quantile ~before ~after family q =
  let b = buckets before family in
  let cum_before le =
    List.fold_left (fun acc (l, c) -> if l <= le then Float.max acc c else acc) 0. b
  in
  let diff =
    List.sort
      (fun (x, _) (y, _) -> Float.compare x y)
      (List.map (fun (le, c) -> (le, c -. cum_before le)) (buckets after family))
  in
  let total = List.fold_left (fun acc (_, c) -> Float.max acc c) 0. diff in
  let rank = Float.max 1. (Float.ceil (q *. total)) in
  match List.find_opt (fun (le, c) -> c >= rank && Float.is_finite le) diff with
  | Some (le, _) -> le
  | None -> 0.

(* ---- the closed-loop client ---- *)

type stream = { rng : Splitmix.t; draw_delta : Splitmix.t -> int }

let make_stream seed =
  { rng = Splitmix.make seed; draw_delta = Splitmix.harmonic ~lo:2 ~hi:max_delta }

let next_batch st =
  Array.init batch (fun _ ->
      let delta = st.draw_delta st.rng in
      (delta, Splitmix.below st.rng (delta + 3)))

(* There are few distinct requests, so each is rendered once and a
   batch is their concatenation: the client's share of a round trip
   stays small next to the server's. *)
let rendered =
  Array.init (max_delta + 1) (fun delta ->
      Array.init (delta + 3) (fun rounds ->
          Render.render
            (Json.Obj [ ("op", str "verify"); ("delta", int delta); ("rounds", int rounds) ])))

let encode reqs =
  "["
  ^ String.concat ", "
      (Array.to_list (Array.map (fun (delta, rounds) -> rendered.(delta).(rounds)) reqs))
  ^ "]"

(* Number of answers that are not the expected verdict (certified iff
   rounds >= delta) for the request in the same position. Only `ok`
   responses carry a "verdict", so reading the verdicts in order checks
   both. A scan rather than a full parse keeps the client's share of
   the round trip small. *)
let wrong_answers reqs payload =
  let n = Array.length reqs and len = String.length payload in
  let key = "\"verdict\"" in
  let matches_at i sub =
    let n = String.length sub in
    let rec from k = k = n || (Char.equal payload.[i + k] sub.[k] && from (k + 1)) in
    i + n <= len && from 0
  in
  let rec find i =
    match String.index_from_opt payload i '"' with
    | Some j when matches_at j key -> Some (j + String.length key)
    | Some j -> find (j + 1)
    | None -> None
  in
  let rec skip i =
    if i < len && (Char.equal payload.[i] ' ' || Char.equal payload.[i] ':') then skip (i + 1)
    else i
  in
  let rec go i k bad =
    match find i with
    | None -> bad + (n - k)
    | Some _ when k >= n -> bad + 1
    | Some j ->
      let delta, rounds = reqs.(k) in
      let expected = if rounds >= delta then "\"certified\"" else "\"refuted\"" in
      let v = skip j in
      go v (k + 1) (if matches_at v expected then bad else bad + 1)
  in
  go 0 0 0

type conn = { fd : Unix.file_descr; mutable sent_at : int64; mutable reqs : (int * int) array }

type block = {
  requests : int;
  wall_s : float;
  rtts_ms : float list;
  encode_s : float;
  decode_s : float;
}

(* [batches] batches over [conns] connections, each keeping one batch
   in flight. Encode and decode are timed only when [traced]. *)
let run_block srv st ~conns ~batches ~traced =
  let cs =
    List.init conns (fun _ -> { fd = connect srv.port; sent_at = 0L; reqs = [||] })
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) cs)
    (fun () ->
      let issued = ref 0 and completed = ref 0 and bad = ref 0 in
      let rtts = ref [] and encode_s = ref 0. and decode_s = ref 0. in
      let traced_call acc f =
        if traced then begin
          let v, s = timed f in
          acc := !acc +. s;
          v
        end
        else f ()
      in
      let issue c =
        if !issued < batches then begin
          incr issued;
          c.reqs <- next_batch st;
          let payload = traced_call encode_s (fun () -> encode c.reqs) in
          c.sent_at <- now_ns ();
          write_frame c.fd payload
        end
        else c.reqs <- [||]
      in
      let t0 = now_ns () in
      List.iter issue cs;
      while !completed < batches do
        let busy = List.filter (fun c -> Array.length c.reqs > 0) cs in
        let readable, _, _ = Unix.select (List.map (fun c -> c.fd) busy) [] [] 10. in
        if readable = [] then failwith "ld serve stopped answering";
        List.iter
          (fun c ->
            if List.mem c.fd readable then begin
              let payload = read_frame c.fd in
              rtts := (1000. *. since c.sent_at) :: !rtts;
              bad := !bad + traced_call decode_s (fun () -> wrong_answers c.reqs payload);
              incr completed;
              issue c
            end)
          busy
      done;
      let wall_s = since t0 in
      tally "serve-verify: ok response with verdict certified iff rounds >= delta"
        ~n:(batches * batch) ~bad:!bad;
      {
        requests = batches * batch;
        wall_s;
        rtts_ms = !rtts;
        encode_s = !encode_s;
        decode_s = !decode_s;
      })

(* A block and the factor scaling its time to the reference machine. *)
let scaled_block srv st ~conns ~batches ~traced =
  let b, _, scale = scaled (fun () -> run_block srv st ~conns ~batches ~traced) in
  (b, scale)

(* Seconds per 10^6 requests, at reference speed. *)
let s_per_million (b, scale) = scale *. b.wall_s /. float_of_int b.requests *. 1e6

(* One traced block between two scrapes of the server's registry. *)
let traced_block srv st ~batches =
  let before = scrape srv in
  Obs.enable ();
  let g0 = gc_now () in
  let ((b, _) as sb) =
    Obs.with_span "bench.block" (fun () -> scaled_block srv st ~conns:1 ~batches ~traced:true)
  in
  let gc = gc_since g0 in
  Obs.disable ();
  let after = scrape srv in
  let d name = series after name -. series before name in
  let q family p = window_quantile ~before ~after family p in
  let batch_p50_ms = 1000. *. q "ld_serve_batch_seconds" 0.5 in
  let rtt = Array.of_list (List.sort Float.compare b.rtts_ms) in
  let nb = float_of_int (List.length b.rtts_ms) in
  let requests = d "ld_serve_requests_total" in
  ( sb,
    [
      ("serve.batch_p50_ms", batch_p50_ms);
      ("serve.batch_p99_ms", 1000. *. q "ld_serve_batch_seconds" 0.99);
      ("serve.batch_busy_frac", d "ld_serve_batch_seconds_sum" /. b.wall_s);
      ("serve.request_p50_us", 1e6 *. q "ld_serve_request_seconds" 0.5);
      ("wire.transport_p50_ms", quantile rtt 0.5 -. batch_p50_ms);
      ( "serve.verdict_memo_hit_ratio",
        if requests > 0. then d "ld_serve_verdict_memo_hits_total" /. requests else 0. );
      ("serve.cache_builds", series after "ld_serve_cache_builds_total");
      ("client.encode_us_per_batch", 1e6 *. b.encode_s /. nb);
      ("client.decode_us_per_batch", 1e6 *. b.decode_s /. nb);
    ],
    gc )

let run ctx =
  let setups =
    List.init (if ctx.trace then 1 else 9) (fun i ->
        let (srv, wall), _, scale = scaled (fun () -> start ctx i) in
        (srv, scale *. wall))
  in
  let srv =
    match List.rev setups with
    | (last, _) :: earlier ->
      List.iter (fun (s, _) -> stop s) earlier;
      last
    | [] -> assert false
  in
  Fun.protect
    ~finally:(fun () -> stop srv)
    (fun () ->
      let st = make_stream ctx.seed in
      (* Untimed warm-up: every delta once, then enough traffic to fill
         the verdict memo. *)
      (match
         request srv.port
           (Json.Arr
              (List.init (max_delta - 1) (fun i ->
                   Json.Obj [ ("op", str "probe"); ("delta", int (i + 2)) ])))
       with
      | Json.Arr rs ->
        check "serve-verify: warm-up probes answered"
          (List.length rs = max_delta - 1
          && List.for_all
               (fun r ->
                 match Json.member "ok" r with Some (Json.Bool b) -> b | _ -> false)
               rs)
      | _ -> check "serve-verify: warm-up probes answered" false);
      ignore (run_block srv st ~conns:2 ~batches:64 ~traced:false : block);
      let batches = if ctx.toy then 16 else 2048 in
      let plain ~conns () = scaled_block srv st ~conns ~batches ~traced:false in
      let one = ref [] and two = ref [] and traced = ref [] in
      ignore
        (repeat ~seconds:ctx.seconds ~min_units:(if ctx.trace then 2 else 5) (fun i ->
             if not ctx.trace then one := plain ~conns:1 () :: !one
             else
               ignore
                 (rotated i
                    [
                      (fun () -> one := plain ~conns:1 () :: !one);
                      (fun () -> traced := traced_block srv st ~batches :: !traced);
                      (fun () -> two := plain ~conns:2 () :: !two);
                    ]))
          : unit list);
      let one = List.rev !one in
      let rtt =
        Array.of_list (List.sort Float.compare (List.concat_map (fun (b, _) -> b.rtts_ms) one))
      in
      set "client.rtt_p50_ms" (quantile rtt 0.5);
      set "client.rtt_p999_ms" (quantile rtt 0.999);
      set "client.batches" (float_of_int (Array.length rtt));
      let work = median (List.map s_per_million one) in
      (if ctx.trace then begin
         let traced = !traced in
         List.iter
           (fun (name, _) ->
             set name (median (List.map (fun (_, kvs, _) -> List.assoc name kvs) traced)))
           (match traced with (_, kvs, _) :: _ -> kvs | [] -> []);
         set_gc (List.map (fun (_, _, g) -> g) traced);
         set "obs.trace_overhead_frac"
           ((median (List.map (fun (b, _, _) -> s_per_million b) traced) /. work) -. 1.);
         set "par.speedup_2way" (work /. median (List.map s_per_million !two));
         write_trace ctx
       end
       else begin
         sample "setup_s" (List.map snd setups);
         sample "work_s" (List.map s_per_million one);
         set "setup_s" (median (List.map snd setups));
         set "work_s" work;
         match Json.member "peak_rss_kb" (request srv.port (op "stats")) with
         | Some (Json.Num kb) -> set "peak_rss_mb" (kb /. 1024.)
         | _ -> check "serve-verify: server reports its peak RSS" false
       end);
      add_row
        [
          ("workload", str ctx.workload);
          ("conns", int 1);
          ("wall_ms", num (1000. *. work));
        ])
