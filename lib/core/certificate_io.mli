(** Serialisation and independent verification of lower-bound
    certificates.

    A certificate chain produced by {!Lower_bound.run} can be written to
    disk and later re-verified from scratch — against the graphs alone
    (view isomorphism + structural claims), or additionally against the
    algorithm (re-running it and comparing the claimed outputs). This
    separates certificate {e checking} from certificate {e generation},
    the usual standard for a verifiable artifact. *)

(** Serialise a certificate chain. *)
val to_string : Lower_bound.certificate list -> string

(** @raise Failure on malformed input, including a graph the EC model
    rejects (e.g. a colour outside [\[1, 2^30)]), a graph with more
    nodes than loop and edge ends, and a weight that is no rational. *)
val of_string : string -> Lower_bound.certificate list

val save : string -> Lower_bound.certificate list -> unit
val load : string -> Lower_bound.certificate list

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
