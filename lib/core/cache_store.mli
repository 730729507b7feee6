(** Warm-restart persistence for memoised constructions.

    {!Lower_bound.build_cache} is the dominant cost of every frontier
    scan: it runs the full adversary once per [(delta, algorithm)].
    This module spills the resulting cache into a content-addressed
    {!Ld_store.Store} as one record per level — the level's entry of
    the adversary's trail, its probe thresholds and its certificate's
    weights — and rebuilds the cache on a later run without executing
    the algorithm or building a graph, so a second full THM1 sweep is a
    few dozen small reads.

    Keys include a {!code_version} fingerprint: bumping it (on any
    codec or construction change) cleanly invalidates old records
    instead of misreading them. Only [Certified] outcomes are stored —
    a refutation carries a failure witness whose value is in being
    fresh, and refuted runs are cheap (they stop early).

    Corruption policy: a record that fails the store's frame checks or
    this module's decode surfaces as {!Ld_store.Store.Store_corrupt}
    from {!load_cache}; the {!build_cache} wrapper catches it, deletes
    the damaged records, recomputes cold and re-saves
    ([store.corrupt] counts the incident). A corrupt store never
    crashes a run and never masquerades as a hit. *)

module Store = Ld_store.Store

(** Bump on any change to the entry codec or to the construction
    itself; stale records then miss instead of being misread. *)
val code_version : string

(** The store key of one level's record. Single-line, human-greppable
    in the store index: [ld-cache/v<ver> delta=<d> level=<l>
    views=<b> algo=<name>]. *)
val key : delta:int -> level:int -> algo:string -> check_views:bool -> string

(** One persisted level: its certificate and, in canonical check
    order, the level's probes. *)
type entry = {
  entry_level : int;
  entry_certificate : Lower_bound.certificate;
  entry_probes : Lower_bound.probe list;
}

(** The level-record codec (code version 3): varint ints — Δ, the
    level, the certificate's trail prefix for levels [0 … level], one
    threshold per probe — then the certificate's two weights as text
    and its views flag. No graph is written; the trail rebuilds them.
    @raise Invalid_argument if the certificate's trail does not reach
    exactly its level, a probe is of another level, a field is
    negative, or a weight's text exceeds 1024 bytes. *)
val entry_to_string : entry -> string

(** Decodes exactly the strings {!entry_to_string} produces: any other
    input fails, and no count in it makes the decoder allocate more
    than in proportion to the input's length. The trail is checked at
    decode time ({!Lower_bound.level_of_trail}), so a decoded entry
    always replays; its certificate and probes share one replay chain,
    and no graph is built until one is forced.
    @raise Failure on malformed input (trailing bytes included). *)
val entry_of_string : string -> entry

(** [level_entries cache] is the entries of a certified cache's
    levels [0, 1, …], each with its level's probes: the one grouping
    {!save_cache} and {!chain_to_string} write. [None] for a [Refuted]
    outcome or a cache whose probes don't partition by certificate
    level. *)
val level_entries : Lower_bound.cache -> entry list option

(** [assemble_records ~delta ~algo_name ~check_views records] decodes
    the records of levels [0 … delta-2] with {!entry_of_string} and
    wires them onto one replay chain ({!Lower_bound.assemble_cache},
    which checks that their trails are prefixes of one trail for
    [delta]); no graph is built. The one decode-and-assemble step of
    {!load_cache} and {!chain_of_string}.
    @raise Failure if [delta < 2], there are not [delta - 1] records, a
    record does not decode, or the records are not levels [0, 1, …] of
    one construction of [delta]. *)
val assemble_records :
  delta:int -> algo_name:string -> check_views:bool -> string list ->
  Lower_bound.cache

(** [save_cache store cache] writes one record per certified level.
    Returns [false] (and writes nothing) where {!level_entries} is
    [None]. Writing an already-present level is a no-op ({!Store.put}
    recognises the byte-identical record). *)
val save_cache : Store.t -> Lower_bound.cache -> bool

(** [load_cache store ~check_views ~delta ~algo_name] reassembles a
    cache from the store, or [None] if any level [0 … delta-2] is
    missing. The records go through {!assemble_records}; no graph is
    built. The reassembled cache re-serialises byte-for-byte like the
    {!Lower_bound.build_cache} original (pinned in [test_store]).
    @raise Store.Store_corrupt if a present record is undecodable, or
    the records do not describe one construction of [delta].
    @raise Invalid_argument if [delta < 2]. *)
val load_cache :
  Store.t -> check_views:bool -> delta:int -> algo_name:string ->
  Lower_bound.cache option

(** {2 Certificate files}

    A certificate file ({!Certificate_io}) is one chain's level records,
    the very bytes {!save_cache} stores:

    - the header line [ld-chain/v<code_version>\n];
    - the record count, a varint;
    - each record ({!entry_to_string}), prefixed by its length as a
      varint.

    Varints follow the record codec's rules: unsigned LEB128 in minimal
    form, and every count is checked against the bytes left before
    anything is allocated. No graph is written; reading replays the
    trail. *)

(** [chain_to_string cache] is the certificate file of a certified
    cache: its {!level_entries}, framed as above.
    @raise Invalid_argument if {!level_entries} is [None]. *)
val chain_to_string : Lower_bound.cache -> string

(** [chain_of_string ~delta s] decodes exactly the strings
    {!chain_to_string} produces for a construction of [delta], and
    passes the records to {!assemble_records}. A file of another Δ, of
    another code version or with trailing bytes is rejected before any
    graph is replayed. The cache's base algorithm is unknown (an empty
    name): the file does not record it.
    @raise Failure on any other input. *)
val chain_of_string : delta:int -> string -> Lower_bound.cache

(** [build_cache ?store ~delta algo] is {!Lower_bound.build_cache}
    with optional persistence: with a store, a fully-populated set of
    level records short-circuits the construction entirely (no
    [core.lb.build_cache] span is emitted, [core.cache_store.warm]
    increments); on a miss or corruption it recomputes and saves
    ([core.cache_store.cold]). Without [store] it is exactly
    {!Lower_bound.build_cache}.
    @raise Invalid_argument if [delta < 2]. *)
val build_cache :
  ?store:Store.t -> ?check_views:bool -> delta:int -> Lower_bound.algorithm ->
  Lower_bound.cache
