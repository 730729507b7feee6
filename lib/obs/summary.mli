(** Human-readable rendering of the recorded spans and counters. *)

val pp : Format.formatter -> unit -> unit
(** Span table (count, total ms, self ms, mean µs — execution order),
    per-domain event/task utilisation, and every non-zero counter. *)

val pp_tree : Format.formatter -> unit -> unit
(** Span tree of the first (main) domain's buffer: nesting as recorded,
    merged by path, one line per distinct path with count and total. *)

val pp_level : level:int -> Format.formatter -> unit -> unit
(** Span table restricted to the [core.lb.level] span carrying arg
    [("level", i)] and everything nested inside it (across domains —
    the level's probe fan-out is included, sibling levels are not). *)

val json : unit -> Json.value
(** Machine-readable form of the {!pp} tables plus histogram quantiles:
    one JSON object with [spans], [counters], [gauges], [histograms]
    (p50/p90/p99/p999/max/sum in milliseconds), [domains] and, when
    available, [peak_rss_kb]. Backs [ld stats --json]. *)

val to_json : unit -> string
(** {!json}, rendered. *)

val section_ms : prefix:string -> (string * float) list
(** Total wall-clock per span whose name starts with [prefix], prefix
    stripped, in execution order — the bench uses this to fold section
    timings into its JSON artefact from the same clock as the trace. *)
