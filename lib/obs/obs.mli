(** Observability primitives for the adversary pipeline: spans on a
    monotonic clock with per-domain event buffers, and [Atomic]-backed
    named counters with a registry.

    The default sink is a no-op: until {!enable} is called, {!with_span}
    runs its body directly, counter increments are dropped, and
    {!Trace.write} writes nothing — instrumentation left in hot paths
    costs one branch. All naming follows [<lib>.<area>.<what>]
    (e.g. [cover.refine.intern_misses], [core.pool.task]); see
    DESIGN.md § Observability.

    Events are appended to a lock-free per-domain buffer (domain-local
    storage; no synchronisation on the hot path, registration of a new
    domain's buffer takes a mutex once). The buffer's [tid] is the
    OCaml domain id, so a Chrome trace renders one row per domain. *)

(** {1 Global sink switch} *)

val enable : unit -> unit
(** Turn the sink on: spans are recorded, counters accumulate. *)

val disable : unit -> unit
(** Turn the sink back off. Recorded events and counter values are
    kept; use {!reset} to drop them. *)

val enabled : unit -> bool

val set_span_recording : bool -> unit
(** Secondary switch for span events only. Long-running samplers
    ([ld serve], [ld load]) set it to [false] so counters,
    gauges and histograms keep recording while the per-domain span
    buffers stop growing. Only consulted while the sink is enabled;
    defaults to [true]. *)

val spans_enabled : unit -> bool
(** [enabled () && span recording on] — the gate {!with_span} uses. *)

val reset : unit -> unit
(** Empty every domain's event buffer and zero every counter. Buffers
    stay registered, so domains that already touched the sink keep
    recording after a reset. *)

val reset_events : unit -> unit
(** Empty the span event buffers only, keeping counter and gauge
    values — what a long-lived sampler calls to bound memory. Quiesce
    recording domains first. *)

(** {1 Clock} *)

val now_ns : unit -> int64
(** Monotonic clock ([CLOCK_MONOTONIC]), nanoseconds. *)

val now_ms : unit -> float
(** {!now_ns} in milliseconds. *)

(** {1 Spans} *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a [name] span on the calling
    domain's buffer. The span is closed even if [f] raises. When the
    sink is disabled this is exactly [f ()]. *)

val span_begin : ?args:(string * string) list -> string -> unit
val span_end : string -> unit
(** Manual begin/end for spans that cannot wrap a closure. Ends must
    nest properly within the same domain. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** Interned by name: two [make "x"] return the same counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** Atomic; dropped while the sink is disabled. *)

  val value : t -> int
  val name : t -> string

  val snapshot_all : unit -> (string * int) list
  (** Every registered counter — zeros included — sorted by name: a
      stable basis for differencing around a section of work. *)

  val diff : (string * int) list -> (string * int) list -> (string * int) list
  (** [diff before after]: per-counter increments between two
      {!snapshot_all} snapshots, dropping zero deltas. Counters born
      between the snapshots count from zero. *)
end

val counters : unit -> (string * int) list
(** Snapshot of every registered counter, sorted by name. *)

(** {1 Gauges}

    Max-accumulating instruments for high-water marks (peak RSS, peak
    active set): {!Gauge.record} keeps the largest value seen. Same
    registry and sink discipline as counters. *)

module Gauge : sig
  type t

  val make : string -> t
  (** Interned by name: two [make "x"] return the same gauge. *)

  val record : t -> int -> unit
  (** Keep [max] of the recorded values. Atomic; dropped while the
      sink is disabled. *)

  val value : t -> int
  val name : t -> string
end

val gauges : unit -> (string * int) list
(** Snapshot of every registered gauge, sorted by name. *)

val peak_rss_kb : unit -> int option
(** Peak resident set size of this process in kB ([VmHWM] from
    [/proc/self/status]): the high-water mark since process start or
    the last successful {!reset_peak_rss}. [None] when procfs is
    unavailable. *)

val reset_peak_rss : unit -> bool
(** Resets [VmHWM] to the current RSS (writes [5] to
    [/proc/self/clear_refs]), so the next {!peak_rss_kb} is the peak of
    what ran in between. [false] when the file is not writable; the
    high-water mark then stays whole-process. *)

(** {1 Raw events (export and tests)} *)

type phase = B | E

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : int64; (* ns on the monotonic clock *)
  ev_tid : int; (* domain id *)
  ev_args : (string * string) list;
}

val events : unit -> event list
(** All recorded events, grouped by buffer (buffers in registration
    order); within one buffer events are in chronological order. *)

val span_totals : unit -> (string * (int * float * float)) list
(** Aggregate spans by name, in order of first occurrence:
    [(name, (count, total_ms, self_ms))]. [self_ms] excludes time spent
    in nested spans on the same domain. Unbalanced trailing begins are
    ignored. *)
