(* The one socket loop of `ld serve`; the contract is in server.mli. *)

module Obs = Ld_obs.Obs
module Hist = Ld_obs.Hist
module Openmetrics = Ld_obs.Openmetrics

let c_conns = Obs.Counter.make "serve.connections"
let c_write_errors = Obs.Counter.make "serve.write_errors"
let c_queue_full = Obs.Counter.make "serve.queue_full"
let g_pending = Obs.Gauge.make "serve.pending_peak_bytes"
let h_read = Hist.make "serve.read"
let h_write = Hist.make "serve.write"
let queue_cap = 1 lsl 20

(* A wire connection reads frames, a /metrics one a request head; an
   answered head reads no more and closes once its output drains. *)
type input = Frames of Wire.Framer.t | Head of Buffer.t | Answered

type conn = {
  fd : Unix.file_descr;
  mutable input : input;
  out : string Queue.t; (* unwritten output: the first string from [off] on *)
  mutable off : int;
  mutable pending : int; (* unwritten bytes in [out] *)
}

let listen port =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  Unix.set_nonblock sock;
  sock

(* Writes until the queue drains or the socket is full. A failed write
   counts in [serve.write_errors] and raises on. *)
let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some s -> (
    let len = String.length s - c.off in
    match Hist.timed h_write (fun () -> Unix.single_write_substring c.fd s c.off len) with
    | n ->
      c.pending <- c.pending - n;
      c.off <- (if n < len then c.off + n else (ignore (Queue.pop c.out : string); 0));
      flush c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception (Unix.Unix_error _ as e) ->
      Obs.Counter.incr c_write_errors;
      raise e)

(* Queues [s] and writes at once: on the hot path [s] leaves in one
   write and nothing stays queued. *)
let reply c s =
  Queue.push s c.out;
  c.pending <- c.pending + String.length s;
  flush c;
  Obs.Gauge.record g_pending c.pending;
  if c.pending > queue_cap then Obs.Counter.incr c_queue_full

(* One read, and the answer to whatever it completes. *)
let on_readable state c =
  match c.input with
  | Frames framer ->
    let buf, off, len = Wire.Framer.space framer in
    let n = Hist.timed h_read (fun () -> Unix.read c.fd buf off len) in
    Option.iter (fun p -> reply c (Wire.frame (Service.handle_payload state p))) (Wire.Framer.advance framer n)
  | Head head ->
    let buf = Bytes.create (Openmetrics.max_head - Buffer.length head) in
    let n = Unix.read c.fd buf 0 (Bytes.length buf) in
    if n = 0 then raise Wire.Closed;
    Buffer.add_subbytes head buf 0 n;
    Option.iter (fun r -> c.input <- Answered; reply c r) (Openmetrics.respond (Buffer.contents head))
  | Answered -> ()

(* One select round of [c]; [false] once it is done with. *)
let serve_conn state c ~readable ~writable =
  match
    if writable then flush c;
    if readable then on_readable state c
  with
  | () -> not (c.input = Answered && c.pending = 0)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
  | exception Wire.Closed when c.pending > 0 ->
    (* Half-closed: the peer may still read what is queued. *)
    c.input <- Answered;
    true
  | exception (Wire.Closed | Unix.Unix_error _) -> false
  | exception Wire.Bad_frame _ ->
    Obs.Counter.incr Service.c_errors;
    false

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run state ~wire ~metrics =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners = (wire, true) :: Option.fold ~none:[] ~some:(fun m -> [ (m, false) ]) metrics in
  let conns = ref [] in
  let accept (sock, frames) =
    let fd, _ = Unix.accept ~cloexec:true sock in
    Unix.set_nonblock fd;
    if frames then Obs.Counter.incr c_conns;
    let input = if frames then Frames (Wire.Framer.create ()) else Head (Buffer.create 256) in
    conns := { fd; input; out = Queue.create (); off = 0; pending = 0 } :: !conns
  in
  while not state.Service.shutdown do
    let reading = List.filter (fun c -> c.input <> Answered && c.pending <= queue_cap) !conns in
    let readable, writable, _ =
      Unix.select
        (List.map fst listeners @ List.map (fun c -> c.fd) reading)
        (List.filter_map (fun c -> if c.pending > 0 then Some c.fd else None) !conns)
        [] 1.0
    in
    List.iter (fun l -> if List.mem (fst l) readable then try accept l with Unix.Unix_error _ -> ()) listeners;
    let keep c = serve_conn state c ~readable:(List.mem c.fd readable) ~writable:(List.mem c.fd writable) in
    conns := List.filter (fun c -> keep c || (close_quietly c.fd; false)) !conns
  done;
  List.iter (fun c -> ignore (serve_conn state c ~readable:false ~writable:true : bool); close_quietly c.fd) !conns;
  List.iter (fun (sock, _) -> close_quietly sock) listeners
