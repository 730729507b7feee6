(* Ld_net: the bytes `ld serve` answers, the verdict memo's bound and
   exactness, that no payload makes the handler raise, that the frame
   reassembler returns every frame whatever the chunk boundaries,
   rejects bad headers with its typed error and allocates by what
   arrives, not by what a header announces, and that the serve loop,
   driven over loopback, lets no client stall another. *)

module Json = Ld_obs.Json
module Wire = Ld_net.Wire
module Framer = Wire.Framer
module Service = Ld_net.Service
module LB = Ld_core.Lower_bound

let max_delta = 4
let state = Service.create ~max_delta ()

(* Each response is the bytes the server gave before the cursor parser
   and the array memo, except for the integer out of float range, which
   used to be read as 0. *)
let response_bytes () =
  List.iter
    (fun (request, response) ->
      Alcotest.(check string) request response (Service.handle_payload state request))
    [
      ({|{"op":"ping"}|}, {|{"ok":true}|});
      ( {|[{"op":"probe","delta":3}]|},
        {|[{"ok":true,"delta":3,"outcome":"certified","levels":2,"probes":5}]|} );
      ( {|[{"op":"verify","delta":3,"rounds":2}, {"op":"verify","delta":3,"rounds":3},{"op":"verify","delta":4,"rounds":100}]|},
        {|[{"ok":true,"delta":3,"rounds":2,"verdict":"refuted"},{"ok":true,"delta":3,"rounds":3,"verdict":"certified"},{"ok":true,"delta":4,"rounds":100,"verdict":"certified"}]|}
      );
      ({|{"op":"frontier","delta":4}|}, {|{"ok":true,"delta":4,"frontier":4}|});
      ({|{"op":"nope"}|}, {|{"ok":false,"error":"unknown op \"nope\""}|});
      ({|{"delta":3}|}, {|{"ok":false,"error":"missing \"op\""}|});
      ( {|[{"op":"verify","delta":9,"rounds":1},{"op":"probe","delta":1}]|},
        {|[{"ok":false,"error":"delta 9 out of range [2, 4]"},{"ok":false,"error":"delta 1 out of range [2, 4]"}]|}
      );
      ({|[{"op":"verify"|}, {|{"ok":false,"error":"parse error: expected , or } at byte 15"}|});
      ("", {|{"ok":false,"error":"parse error: expected value at byte 0"}|});
      ("42", {|{"ok":false,"error":"expected a request object or array"}|});
      ( {|[{"op":"verify","delta":3,"rounds":-1},{"op":"verify","delta":3,"rounds":1.5}]|},
        {|[{"ok":false,"error":"negative \"rounds\""},{"ok":false,"error":"missing or non-integer \"rounds\""}]|}
      );
      ( {|[{"op":"verify","delta":3,"rounds":1e300},{"op":"verify","delta":1e300,"rounds":1}]|},
        {|[{"ok":false,"error":"missing or non-integer \"rounds\""},{"ok":false,"error":"missing or non-integer \"delta\""}]|}
      );
    ]

let int_member_range () =
  let member text = Wire.int_member "k" (Json.parse text) in
  Alcotest.(check (option int)) "2^53" (Some (1 lsl 53)) (member {|{"k":9007199254740992}|});
  Alcotest.(check (option int)) "-2^53" (Some (-(1 lsl 53))) (member {|{"k":-9007199254740992}|});
  Alcotest.(check (option int)) "above 2^53" None (member {|{"k":18014398509481984}|});
  Alcotest.(check (option int)) "1e300" None (member {|{"k":1e300}|});
  Alcotest.(check (option int)) "-0" (Some 0) (member {|{"k":-0}|})

(* 10^5 distinct rounds values fill at most 2 delta + 3 entries per
   delta, and a clamped entry answers what the construction answers
   for the unclamped value. *)
let memo_bounded_and_exact () =
  let state = Service.create ~max_delta () in
  for i = 0 to 99_999 do
    let delta = 2 + (i mod (max_delta - 1)) in
    ignore (Service.verdict state ~delta ~rounds:i : bool)
  done;
  let bound = List.fold_left (fun acc d -> acc + (2 * d) + 3) 0 [ 2; 3; 4 ] in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries <= %d" (Service.memo_entries state) bound)
    true
    (Service.memo_entries state <= bound);
  List.iter
    (fun delta ->
      let cache = Service.get_cache state delta in
      List.iter
        (fun rounds ->
          let direct =
            match LB.truncated_verdict cache ~rounds with `Certified -> true | `Refuted -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "delta %d rounds %d" delta rounds)
            direct
            (Service.verdict state ~delta ~rounds))
        [ 0; delta - 1; delta; (2 * delta) + 2; (2 * delta) + 3; 1_000_000; max_int ])
    [ 2; 3; 4 ]

(* Random bytes, and byte-mutated request batches that reach the ops. *)
let payload_gen =
  let open QCheck.Gen in
  let request =
    map3
      (fun op delta rounds ->
        Printf.sprintf {|{"op":"%s","delta":%d,"rounds":%d}|} op delta rounds)
      (oneofl [ "ping"; "probe"; "verify"; "frontier"; "stats"; "nope" ])
      (int_range (-1) 6) (int_range (-2) 12)
  in
  let batch = map (fun rs -> "[" ^ String.concat "," rs ^ "]") (list_size (int_range 0 4) request) in
  let mutated =
    batch >>= fun s ->
    map2
      (fun p c ->
        let p = p mod (String.length s + 1) in
        String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p))
      nat char
  in
  oneof [ string_size (int_range 0 64); batch; mutated ]

let handler_total =
  QCheck.Test.make ~count:500 ~name:"handle_payload returns JSON, never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") payload_gen)
    (fun payload ->
      match Json.parse (Service.handle_payload state payload) with
      | Json.Obj _ | Json.Arr _ -> true
      | _ -> false)

(* ---- frame reassembly ---- *)

(* Feeds [stream] to [t] the way a socket hands it over in [chunks]
   (sizes; what they leave uncovered arrives as one last chunk): a read
   returns at most what is left of its chunk. Returns the completed
   payloads in order. *)
let feed t stream chunks =
  let len = String.length stream in
  let pos = ref 0 and out = ref [] in
  let deliver stop =
    while !pos < stop do
      let buf, off, room = Framer.space t in
      let n = min room (stop - !pos) in
      Bytes.blit_string stream !pos buf off n;
      pos := !pos + n;
      Option.iter (fun p -> out := p :: !out) (Framer.advance t n)
    done
  in
  List.iter (fun c -> deliver (min len (!pos + c))) chunks;
  deliver len;
  List.rev !out

let reassemble stream chunks = feed (Framer.create ()) stream chunks

(* An empty frame, a 1-byte frame, a ~3 KB batch, and a 150 000-byte
   frame whose body buffer grows 64 KiB -> 128 KiB -> 150 000 B. *)
let small_frames =
  let request i =
    Printf.sprintf {|{"op":"verify","delta":%d,"rounds":%d}|} (2 + (i mod 7)) i
  in
  [ ""; "x"; "[" ^ String.concat "," (List.init 80 request) ^ "]" ]

let big_frame = String.init 150_000 (fun i -> Char.chr ((i * 7) land 0xff))
let frames = small_frames @ [ big_frame ]
let stream_of frames = String.concat "" (List.map Wire.frame frames)
let stream = stream_of frames
let check_frames msg got = Alcotest.(check (list string)) msg frames got

let framer_every_split () =
  let small = stream_of small_frames in
  for p = 0 to String.length small do
    Alcotest.(check (list string)) (Printf.sprintf "split at %d" p) small_frames
      (reassemble small [ p ])
  done

let framer_byte_at_a_time () =
  check_frames "one byte per read" (reassemble stream (List.init (String.length stream) (fun _ -> 1)))

let framer_random_chunks =
  QCheck.Test.make ~count:200 ~name:"frames survive random chunkings"
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 1 20_000))
    (fun chunks -> List.equal String.equal (reassemble stream chunks) frames)

let header n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let framer_bad_headers () =
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "header %#x" n) (Wire.Bad_frame n) (fun () ->
          ignore (reassemble (header n) [ 1; 1; 1; 1 ] : string list)))
    [ 0x8000_0000; Wire.max_frame + 1; 0xffff_ffff ];
  Alcotest.(check (list string)) "max_frame itself is a length" []
    (reassemble (header Wire.max_frame) [])

let framer_closed () =
  let closed_after prefix =
    let t = Framer.create () in
    ignore (feed t prefix [] : string list);
    Alcotest.check_raises (Printf.sprintf "after %S" prefix) Wire.Closed (fun () ->
        ignore (Framer.advance t 0 : string option))
  in
  List.iter closed_after [ ""; "\000\000"; header 3; header 3 ^ "a"; Wire.frame "ab" ]

(* A header announcing [max_frame] followed by 10 body bytes allocates
   the 64 KiB first body buffer, not 64 MiB. *)
let framer_hostile_header_allocation () =
  let t = Framer.create () in
  let before = Gc.allocated_bytes () in
  let got = feed t (header Wire.max_frame ^ String.make 10 'x') [] in
  let grown = Gc.allocated_bytes () -. before in
  Alcotest.(check (list string)) "no frame yet" [] got;
  Alcotest.(check bool) (Printf.sprintf "%.0f bytes allocated < 1 MiB" grown) true
    (grown < float_of_int (1 lsl 20))

(* [Wire.recv], the loop `ld load` reads with: a frame trickling in one
   byte per write comes back whole, a bad header raises [Bad_frame],
   and a peer that closes raises [Closed]. *)
let recv_over_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = {|[{"op":"ping"},{"op":"frontier","delta":4}]|} in
  let f = Wire.frame payload in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to String.length f - 1 do
          ignore (Unix.write_substring a f i 1 : int);
          Unix.sleepf 0.001
        done)
  in
  Alcotest.(check string) "trickled frame" payload (Wire.recv b);
  Domain.join writer;
  ignore (Unix.write_substring a "\x7f\xff\xff\xff" 0 4 : int);
  Alcotest.check_raises "over-cap header" (Wire.Bad_frame 0x7fff_ffff) (fun () ->
      ignore (Wire.recv b : string));
  ignore (Unix.write_substring a (header 5 ^ "ab") 0 6 : int);
  Unix.close a;
  Alcotest.check_raises "truncated body" Wire.Closed (fun () -> ignore (Wire.recv b : string));
  Unix.close b

(* ---- the serve loop over loopback ---- *)

module Obs = Ld_obs.Obs
module Server = Ld_net.Server

let counter name = Obs.Counter.value (Obs.Counter.make name)

let port_of sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"

let connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write fd s = ignore (Unix.write_substring fd s 0 (String.length s) : int)

let within_1s fd what =
  match Unix.select [ fd ] [] [] 1.0 with
  | [], _, _ -> Alcotest.failf "%s: nothing to read within 1 s" what
  | _ -> ()

(* One frame out, its answer back within 1 s. *)
let call fd payload =
  Wire.send fd payload;
  within_1s fd payload;
  Wire.recv fd

let ping port =
  let fd = connect port in
  Alcotest.(check string) "ping answered" {|{"ok":true}|} (call fd {|{"op":"ping"}|});
  Unix.close fd

let shutdown port loop =
  let fd = connect port in
  Alcotest.(check string) "shutdown acknowledged" {|{"ok":true}|} (call fd {|{"op":"shutdown"}|});
  Domain.join loop;
  Unix.close fd

(* Runs [f ~port ~metrics_port] against a serve loop in a domain on
   port-0 listeners, then ends the loop with a [shutdown] request.
   [sndbuf] sizes the send buffers of the sockets the wire listener
   accepts. *)
let with_server ?sndbuf f =
  Obs.enable ();
  let wire = Server.listen 0 and metrics = Server.listen 0 in
  Option.iter (Unix.setsockopt_int wire Unix.SO_SNDBUF) sndbuf;
  let port = port_of wire in
  let loop =
    Domain.spawn (fun () -> Server.run (Service.create ~max_delta ()) ~wire ~metrics:(Some metrics))
  in
  f ~port ~metrics_port:(port_of metrics);
  shutdown port loop

(* A client that sends up to 8 MB of 64-ping batches and reads nothing;
   it stops once the server has taken nothing for 1 s. Its small
   receive buffer, and the small send buffer of [with_server ~sndbuf],
   leave the backlog to the server's output queue. *)
let hog port =
  let fd = connect ~rcvbuf:65536 port in
  Unix.set_nonblock fd;
  let batch = Wire.frame ("[" ^ String.concat "," (List.init 64 (fun _ -> {|{"op":"ping"}|})) ^ "]") in
  let len = String.length batch in
  let rec go sent stalls =
    if sent < 8_000_000 && stalls < 20 then
      match Unix.single_write_substring fd batch (sent mod len) (len - (sent mod len)) with
      | n -> go (sent + n) 0
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 0.05 : _ * _ * _);
        go sent (stalls + 1)
  in
  go 0 0;
  fd

let non_reader_stalls_no_one () =
  let full = counter "serve.queue_full" and write_errors = counter "serve.write_errors" in
  with_server ~sndbuf:65536 @@ fun ~port ~metrics_port:_ ->
  let fd = hog port in
  let t0 = Obs.now_ms () in
  ping port;
  let waited = Obs.now_ms () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "ping answered in %.0f ms" waited) true (waited < 1000.);
  Alcotest.(check bool) "the hog's queue passed the cap" true (counter "serve.queue_full" > full);
  let peak = Obs.Gauge.value (Obs.Gauge.make "serve.pending_peak_bytes") in
  Alcotest.(check bool)
    (Printf.sprintf "peak queue %d B is the cap and at most one response" peak)
    true
    (peak > Server.queue_cap && peak <= Server.queue_cap + 1024);
  (* Gone with its answers unread: the queued write fails, and only
     that connection is dropped. *)
  Unix.close fd;
  let rec wait tries =
    if counter "serve.write_errors" = write_errors && tries > 0 then begin
      Unix.sleepf 0.01;
      wait (tries - 1)
    end
  in
  wait 200;
  Alcotest.(check int) "one write error" (write_errors + 1) (counter "serve.write_errors");
  ping port

(* Status line and body of one HTTP exchange whose request goes out in
   [parts], 20 ms apart; every read must come within 1 s. *)
let http port parts =
  let fd = connect port in
  List.iter
    (fun p ->
      write fd p;
      Unix.sleepf 0.02)
    parts;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec drain () =
    within_1s fd "scrape";
    let n = Unix.read fd chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Unix.close fd;
  let resp = Buffer.contents buf in
  let rec head_end i =
    if i + 4 > String.length resp then Alcotest.failf "no header end in %S" resp
    else if String.sub resp i 4 = "\r\n\r\n" then i
    else head_end (i + 1)
  in
  let h = head_end 0 in
  (String.sub resp 0 (String.index resp '\r'), String.sub resp (h + 4) (String.length resp - h - 4))

(* Idle /metrics connections, silent or with half a head, delay no
   scrape; /metrics and / answer 200 with the whole exposition, any
   other path 404, and a head split over several reads is answered
   once it is whole. *)
let metrics_scrapes () =
  with_server @@ fun ~port:_ ~metrics_port ->
  let silent = connect metrics_port and partial = connect metrics_port in
  write partial "GET /met";
  let scrape parts =
    let status, body = http metrics_port parts in
    Alcotest.(check string) "status" "HTTP/1.1 200 OK" status;
    Alcotest.(check bool) "ends with # EOF" true (String.ends_with ~suffix:"# EOF\n" body);
    List.iter
      (fun name ->
        Alcotest.(check bool) name true
          (List.exists (String.starts_with ~prefix:name) (String.split_on_char '\n' body)))
      [ "ld_serve_errors_total "; "ld_serve_write_errors_total "; "ld_serve_queue_full_total " ]
  in
  scrape [ "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" ];
  scrape [ "GET / HTTP/1.1\r\n\r\n" ];
  scrape [ "GET /met"; "rics HTTP/1.1\r\nHost: loc"; "alhost\r\n\r"; "\n" ];
  List.iter
    (fun path ->
      let status, _ = http metrics_port [ Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path ] in
      Alcotest.(check string) path "HTTP/1.1 404 Not Found" status)
    [ "/x"; "/metrics/x" ];
  List.iter Unix.close [ silent; partial ]

let trickled_frame () =
  with_server @@ fun ~port ~metrics_port:_ ->
  let fd = connect port in
  String.iter
    (fun c ->
      write fd (String.make 1 c);
      Unix.sleepf 0.001)
    (Wire.frame {|[{"op":"ping"},{"op":"verify","delta":3,"rounds":3}]|});
  within_1s fd "trickled frame";
  Alcotest.(check string) "answer" {|[{"ok":true},{"ok":true,"delta":3,"rounds":3,"verdict":"certified"}]|}
    (Wire.recv fd);
  Unix.close fd

(* A header above the frame cap counts one error and closes its own
   connection; the one opened before it is still served. *)
let over_cap_header () =
  with_server @@ fun ~port ~metrics_port:_ ->
  let errors = counter "serve.errors" in
  let good = connect port and bad = connect port in
  write bad "\x7f\xff\xff\xff";
  within_1s bad "over-cap header";
  Alcotest.(check int) "closed" 0 (Unix.read bad (Bytes.create 1) 0 1);
  Alcotest.(check int) "serve.errors" (errors + 1) (counter "serve.errors");
  Alcotest.(check string) "the other connection" {|{"ok":true}|} (call good {|{"op":"ping"}|});
  List.iter Unix.close [ good; bad ]

let mid_batch_disconnects () =
  with_server @@ fun ~port ~metrics_port:_ ->
  List.iter
    (fun prefix ->
      let fd = connect port in
      write fd prefix;
      Unix.close fd;
      ping port)
    [ "\000\000"; "\000\000\001\000[{\"op\":\"verify\",\"delta\":3" ]

(* A client that half-closes after a batch still gets the whole
   answer, though it is larger than the socket buffers hold. *)
let half_close () =
  with_server ~sndbuf:65536 @@ fun ~port ~metrics_port:_ ->
  let fd = connect ~rcvbuf:65536 port in
  let n = 100_000 in
  Wire.send fd ("[" ^ String.concat "," (List.init n (fun _ -> {|{"op":"ping"}|})) ^ "]");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Unix.sleepf 0.1;
  within_1s fd "half-closed";
  Alcotest.(check int) "answer bytes" ((12 * n) + 1) (String.length (Wire.recv fd));
  Unix.close fd

(* The acknowledgement is written before the loop returns and closes
   the socket; a loop without a /metrics listener, too. *)
let shutdown_ack () =
  let wire = Server.listen 0 in
  let port = port_of wire in
  let loop = Domain.spawn (fun () -> Server.run (Service.create ~max_delta ()) ~wire ~metrics:None) in
  ping port;
  shutdown port loop;
  Alcotest.check_raises "listener closed" (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")) (fun () ->
      ignore (connect port : Unix.file_descr))

let () =
  Alcotest.run "net"
    [
      ( "service",
        [
          Alcotest.test_case "response bytes" `Quick response_bytes;
          Alcotest.test_case "memo bounded and exact" `Quick memo_bounded_and_exact;
          QCheck_alcotest.to_alcotest handler_total;
        ] );
      ("wire", [ Alcotest.test_case "int_member range" `Quick int_member_range ]);
      ( "framer",
        [
          Alcotest.test_case "split at every byte" `Quick framer_every_split;
          Alcotest.test_case "one byte at a time" `Quick framer_byte_at_a_time;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) framer_random_chunks;
          Alcotest.test_case "bad headers raise Bad_frame" `Quick framer_bad_headers;
          Alcotest.test_case "advance 0 raises Closed" `Quick framer_closed;
          Alcotest.test_case "hostile header allocates little" `Quick
            framer_hostile_header_allocation;
          Alcotest.test_case "recv over a socketpair" `Quick recv_over_socketpair;
        ] );
      ( "server",
        [
          Alcotest.test_case "a client that never reads stalls no one" `Quick
            non_reader_stalls_no_one;
          Alcotest.test_case "/metrics 200, other paths 404" `Quick
            metrics_scrapes;
          Alcotest.test_case "a frame one byte per write" `Quick trickled_frame;
          Alcotest.test_case "over-cap header drops its connection only" `Quick over_cap_header;
          Alcotest.test_case "mid-batch disconnects" `Quick mid_batch_disconnects;
          Alcotest.test_case "a half-closed client gets its answer" `Quick half_close;
          Alcotest.test_case "shutdown acknowledged before the loop returns" `Quick shutdown_ack;
        ] );
    ]
