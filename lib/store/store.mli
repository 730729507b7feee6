(** Content-addressed, persistent on-disk record store.

    The adversary's (G_i, H_i) constructions are immutable,
    content-addressable data: the record for a cache key is fully
    determined by (delta, level, algorithm, code version), so a record
    written once is valid forever and two writers racing on the same
    key write byte-identical payloads. The store exploits exactly that:

    - {b Addressing.} A record is stored under the hex digest (MD5) of
      its key string; the key never needs to be enumerable, only
      recomputable. [objects/<d0d1>/<digest>] keeps directories small.
    - {b Atomicity.} [put] writes to a staging file under [tmp/] and
      [Unix.rename]s it into place — a crashed or racing writer can
      never leave a half-record visible under the final name; the last
      rename wins and all candidates are byte-identical by construction.
      Staging names carry the pid, the domain and a monotonic-ns stamp,
      so no two putters share one; {!open_store} deletes staging files
      over an hour old, which only a put killed before its rename
      leaves.
    - {b Descriptor I/O.} A read is one [Unix.openfile], one [fstat]
      that sizes the buffer, [Unix.read]s into it and one close; a
      missing file ([ENOENT]) is a miss. There is no existence stat
      before the open and no channel buffer. A write (the staged record,
      the index line) is one [Unix.openfile], one [Unix.write] loop and
      one close.
    - {b Corruption detection.} Every record is framed: a 4-byte magic,
      the payload length and the payload's MD5 precede the payload. A
      short file, a bad magic, a length mismatch, a checksum mismatch or
      a record path that is not a regular file (a directory, a FIFO)
      surfaces as {!Store_corrupt} — never a crash, and never silently
      treated as a hit {e or} a miss.
    - {b Flat layout.} The payload starts at the fixed offset
      {!payload_offset}, so a reader that has validated the header once
      can [mmap] the file and use the payload bytes in place.
    - {b Index.} [index] is an append-only advisory file (one
      [<digest> <size> <key>] line per put) for humans and tooling;
      lookups never read it.

    Counters ([store.hits] / [store.misses] / [store.puts] /
    [store.corrupt] / [store.bytes_read] / [store.bytes_written]) feed
    the usual {!Ld_obs} registry, so warm-restart guards can assert
    [store.hits > 0] from bench artefacts. *)

type t

(** A record failed validation: short file, bad magic, length or
    checksum mismatch, or a path that is not a regular file. The string
    names the offending path and check. *)
exception Store_corrupt of string

(** Byte offset at which every record's payload starts. *)
val payload_offset : int

(** Resolution order for the root directory: [LD_STORE], then
    [$XDG_CACHE_HOME/ld], then [$HOME/.cache/ld], then [./.ld-store]. *)
val default_dir : unit -> string

(** [open_store ?dir ()] creates the layout under the root (default
    {!default_dir}) if needed, deletes [tmp/] staging files whose mtime
    is over an hour old, and returns a handle. Safe to call from several
    processes at once. *)
val open_store : ?dir:string -> unit -> t

val dir : t -> string

(** Hex digest a key is stored under. *)
val digest_hex : string -> string

(** [put t ~key payload] writes the record atomically (stage + rename)
    and appends an index line. Re-putting an existing key is a cheap
    no-op when the stored record already validates — content
    addressing makes overwriting pointless; an existing record that
    fails validation is replaced.
    @raise Store_corrupt if the record path is not a regular file, or
    if a valid record there holds another payload. *)
val put : t -> key:string -> string -> unit

(** [get t ~key] is the stored payload, [None] on a miss.
    @raise Store_corrupt if a record exists but fails validation. *)
val get : t -> key:string -> string option

(** [mem t ~key] — a record file exists (it is {e not} validated). *)
val mem : t -> key:string -> bool

(** [delete t ~key] removes whatever is at the record path (a file, or
    a directory and its contents), if anything. The index keeps its
    historical line (it is advisory). *)
val delete : t -> key:string -> unit

(** Parsed index lines, oldest first: [(digest, size, key)].
    Duplicate digests (re-puts, racing writers) are deduplicated,
    keeping the first occurrence. *)
val entries : t -> (string * int * string) list
