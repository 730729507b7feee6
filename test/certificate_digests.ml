(* MD5 digests of certificate chains the adversary builds.

   [md5] digests the chain's graphs as [Certificate_text] prints them,
   pinned when [Lower_bound.run] still kept every level's graphs
   eagerly: the trail-replayed chains must print the same bytes.
   [file_md5] digests the certificate file [ld certify] writes, the
   chain's level records. *)

let md5 certs = Digest.to_hex (Digest.string (Certificate_text.to_string certs))

let file_md5 cache =
  Digest.to_hex (Digest.string (Ld_core.Cache_store.chain_to_string cache))

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

(* The certificate files of the same chains. *)
let greedy_files =
  [
    (2, "d730dafe26636ebe3e8805d175124c5e");
    (3, "c55f9d781c64671c552c695fe5881859");
    (4, "80cb9a8c23c50a98c0c2d859cb77ce42");
    (5, "089ad3853db49823cdff2c1cc482ba85");
    (6, "a529b86d1a5abb0179db9cf842076d84");
    (7, "2e2345aff7a29275278c285f6f42537a");
    (8, "e72d1132f87c81a966d5626a7ce2345d");
  ]

(* [Packing.truncated `Greedy 4] at Δ = 6: refuted at level 3, after
   certifying levels 0 … 2. *)
let truncated_greedy4_delta6 = "4fe5b3a94a53bc7c68c70ae77b1521f9"
