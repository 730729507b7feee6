(** The socket loop of [ld serve]: one [Unix.select] loop on one domain
    owns every socket the process has — the wire listener, the optional
    [/metrics] listener and every connection they accept.

    Sockets are non-blocking. A wire connection reads through its own
    {!Wire.Framer}, one read per readiness, and a completed frame is
    answered by {!Service.handle_payload}. Each connection has one
    output queue. A response is written in the round that produced it,
    so the usual batch costs one read per frame part and one write;
    only an unwritten remainder stays queued, and the connection is
    selected for writing only while its queue is not empty. A
    connection whose queue holds more than {!queue_cap} bytes is not
    read from until the queue drains, so a client that sends without
    reading costs bounded memory and stalls no one else.

    A [/metrics] connection accumulates its request head (at most
    {!Ld_obs.Openmetrics.max_head} bytes) until
    {!Ld_obs.Openmetrics.respond} answers it, queues the answer and is
    closed once that drains.

    Errors drop only their own connection. A header above
    {!Wire.max_frame} counts in [serve.errors], a failed write in
    [serve.write_errors]. A peer that closes, mid-frame or not, is
    dropped uncounted, or, if output is queued for it, read no more and
    dropped once that drains, so a half-closed peer gets its answers.
    [serve.queue_full] counts responses that left a queue over the cap,
    and the [serve.pending_peak_bytes] gauge is the largest queue seen.
    [serve.read] times each read of a wire connection and [serve.write]
    each write. *)

val queue_cap : int
(** 1 MiB. *)

val listen : int -> Unix.file_descr
(** A non-blocking TCP socket bound to [127.0.0.1:port] and listening;
    port 0 lets the kernel choose. *)

val run : Service.state -> wire:Unix.file_descr -> metrics:Unix.file_descr option -> unit
(** Serves until a request sets [state.shutdown]. Then one last write
    is tried on every queued output, so a [shutdown] acknowledgement is
    sent before [run] closes every connection and both listeners and
    returns. Ignores [SIGPIPE] for the whole process: a write to a
    closed peer fails with [EPIPE] instead. *)
