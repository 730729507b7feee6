(** Run provenance for JSON bench artefacts. BENCH_THM1.json once
    recorded a commit two PRs behind the tree that produced it; this
    module is the single shared probe so every artefact records the
    actual HEAD {e and} whether the working tree was dirty when the
    numbers were taken. All probes are best-effort ([None] without
    git), never a failure. *)

val git_head : unit -> string option
(** Short commit hash of HEAD, if inside a git work tree. *)

val git_dirty : unit -> bool option
(** Whether the work tree has uncommitted changes ([git status
    --porcelain] nonempty). [None] if git is unavailable. *)

val iso8601 : float -> string
(** Render a Unix timestamp as [YYYY-MM-DDThh:mm:ssZ] (UTC). *)

type t = {
  commit : string;  (** short HEAD, or ["unknown"] *)
  dirty : bool option;
  timestamp : string;  (** capture time, ISO 8601 UTC *)
}

val capture : unit -> t

val json_meta_fields : t -> (string * Json.value) list
(** The shared meta fields ([git_commit], [git_dirty], [timestamp]) —
    every bench emitter folds these into its ["meta"] object so the
    provenance schema stays uniform. *)
