(** Chrome trace-event export of the recorded spans.

    The output is the JSON object format of the Trace Event spec
    (loadable in Perfetto / [chrome://tracing]): a ["traceEvents"]
    array of [B]/[E] duration events with [pid] 1 and [tid] = OCaml
    domain id, thread-name metadata per domain, and the final counter
    values under an ["ld_metrics"] key. *)

val write : path:string -> unit
(** [write ~path] renders the current event buffers and counters to
    [path]. A no-op while the sink is disabled: no file is created or
    truncated. *)
