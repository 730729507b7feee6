(** Deterministic contiguous partitioning of [0, len) into at most [k]
    near-equal ranges [(lo, hi)], in ascending order: the parallel
    work split of {!Engine}, whose merge order (submission order =
    range order) every executor therefore shares. *)
val ranges : int -> int -> (int * int) list
