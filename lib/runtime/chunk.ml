(* Deterministic contiguous partitioning of [0, len) — the unit of
   parallel work [Engine.split] hands to [Pool.mapi], and so of every
   executor; one partition and one merge order is what makes
   "byte-identical at any LD_DOMAINS" a single proof obligation. *)

(* Split [0, len) into at most [k] contiguous ranges of near-equal
   size, in order. *)
let ranges len k =
  let k = Stdlib.max 1 (Stdlib.min k len) in
  let base = len / k and extra = len mod k in
  List.init k (fun i ->
      let lo = (i * base) + Stdlib.min i extra in
      (lo, lo + base + if i < extra then 1 else 0))
