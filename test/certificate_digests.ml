(* MD5 digests of [Certificate_io.to_string] for certificate chains the
   adversary builds, recorded when [Lower_bound.run] still kept every
   level's graphs eagerly. The trail-replayed chains must serialise to
   the same bytes. *)

let md5 certs =
  Digest.to_hex (Digest.string (Ld_core.Certificate_io.to_string certs))

(* Greedy-by-colour, Δ = 2..8: the certificates of levels 0 … Δ-2. *)
let greedy =
  [
    (2, "5ded7ec5f680bbb63555aaefc3eb447f");
    (3, "9dd16065c2011d61224f3e1611cb9e60");
    (4, "fd3d81c79a4f85fe086631e1aa81fb25");
    (5, "d6f6709597082ff688b68d3e428a8f5e");
    (6, "f09dbd35f189d64a7e290b61f5d8302e");
    (7, "240dba4b688f059884ed68ca06e28a72");
    (8, "db87313de65de19d765f455c56603395");
  ]

(* [Packing.truncated `Greedy 4] at Δ = 6: refuted at level 3, after
   certifying levels 0 … 2. *)
let truncated_greedy4_delta6 = "4fe5b3a94a53bc7c68c70ae77b1521f9"
