(** The recorded spans, counters, gauges and histograms as data. *)

val json : unit -> Json.value
(** One JSON object with [spans] (count, total and self ms, in execution
    order), the non-zero [counters] and [gauges], [histograms]
    (p50/p90/p99/p999/max/sum in milliseconds), [domains] (events and
    pool tasks per domain), [gc] (the process's [minor_words],
    [promoted_words], [major_collections] and [top_heap_words] from
    [Gc.quick_stat], read after a forced minor collection) and, when
    available, [peak_rss_kb]. Backs [ld adversary --format json]. *)

val to_json : unit -> string
(** {!json}, rendered. *)
