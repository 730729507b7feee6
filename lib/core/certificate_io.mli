(** Certificate files and independent verification of lower-bound
    certificates.

    A certified chain built by {!Lower_bound.build_cache} can be written
    to disk and later re-verified from scratch — against the graphs
    alone (view isomorphism + structural claims), or additionally
    against the algorithm (re-running it and comparing the claimed
    outputs). This separates certificate {e checking} from certificate
    {e generation}, the usual standard for a verifiable artifact.

    A file is the chain's level records in the bytes the persistent
    store keeps ({!Cache_store.chain_to_string}: a one-line header
    naming {!Cache_store.code_version}, a varint record count, then
    each record behind its varint length). It holds the adversary's
    choices, not its graphs: reading it decodes every record with
    {!Cache_store.entry_of_string} and reassembles them through
    {!Cache_store.assemble_records}, the decoder and prefix check of
    the store's warm path, and the graphs are replayed from the trail
    when {!verify} forces them. Soundness rests on {!verify}'s checks
    of the replayed graphs, not on the replay code. *)

(** [save path cache] writes the certified chain of [cache].
    @raise Invalid_argument if [cache] holds no certified chain. *)
val save : string -> Lower_bound.cache -> unit

(** [load ~delta path] reads a file {!save} wrote for a construction of
    [delta]. A file of another Δ is rejected before any graph is
    replayed.
    @raise Failure on malformed input, a header other than this code
    version's, or a chain of another Δ.
    @raise Sys_error if the file cannot be read. *)
val load : delta:int -> string -> Lower_bound.certificate list

(** What independent verification established for one level. *)
type check = {
  chk_level : int;
  chk_structure : bool;
      (** the level lies in [\[0, Δ - 2\]], the adversary's range; the
          named loops exist, with the stated colour, at the stated
          nodes; P2 loopiness and P3 tree-shape hold for the stated Δ *)
  chk_views : bool;
      (** radius-[level] views at the distinguished nodes are isomorphic
          (recomputed by colour refinement) *)
  chk_weights_differ : bool;
  chk_outputs : bool option;
      (** when an algorithm is supplied: re-running it reproduces the
          claimed loop weights on both graphs ([None] if not re-run) *)
}

val check_ok : check -> bool

(** [verify ?algorithm ~delta certs] re-checks every level. *)
val verify :
  ?algorithm:Lower_bound.algorithm -> delta:int ->
  Lower_bound.certificate list -> check list

val pp_check : Format.formatter -> check -> unit
