(** Fork-join fan-out over OCaml 5 domains.

    One adversary construction per [Δ] (the bench harness's theorem
    rows, [ld serve --preload]) and the chunks of a packed executor
    phase ([Ld_runtime.Engine.split]) are embarrassingly parallel: the
    engine has no global mutable state and the arithmetic layer is
    purely functional, so each task can run in its own domain.
    This pool maps a function over a task list with a small crew of
    domains and joins the results {e in submission order}, so output is
    bit-for-bit identical to the sequential run. *)

(** [map ?domains f tasks] is [List.map f tasks], computed by up to
    [domains] domains pulling tasks from a shared queue.

    - [domains] defaults to the [LD_DOMAINS] environment variable if
      set, else [min 8 (Domain.recommended_domain_count ())]. A
      malformed [LD_DOMAINS] value is reported on stderr (and falls
      back to 1 domain) rather than silently ignored. The variable is
      read once per process, so the warning appears once.
    - With one worker (or fewer tasks than two) no domain is spawned:
      the call degrades to plain [List.map f tasks].
    - If any task raises, the exception of the {e earliest} failed task
      (submission order) is re-raised after all domains joined — again
      matching the sequential behaviour. The re-raise preserves the
      worker domain's backtrace ([Printexc.raise_with_backtrace]).
    - When the {!Ld_obs} sink is enabled, every task runs inside a
      [core.pool.task] span and each worker domain a [core.pool.worker]
      span, so a trace shows per-domain utilisation and the idle tail
      ([core.pool.join]) directly. *)
val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** The worker-count [map] uses when [?domains] is omitted ([LD_DOMAINS]
    or the hardware default) — exposed so callers can report it. Parsed
    on the first call and cached; safe to call from any domain. *)
val default_domains : unit -> int

(** Largest worker crew any {!map} of this process has actually run with
    ([1] if none ran yet) — unlike {!default_domains} this reflects the
    task-count clamp, so metadata emitted from it describes the fan-out
    that really happened. *)
val max_workers_used : unit -> int

(** [mapi] is {!map} with the task's submission index. *)
val mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
