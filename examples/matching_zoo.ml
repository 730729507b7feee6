(* The matching-algorithm zoo of §1.1–1.2: every algorithm in the
   library run side by side on the same graphs, with their round
   complexities annotated.

     dune exec examples/matching_zoo.exe *)

module Gen = Ld_graph.Generators
module G = Ld_graph.Graph
module Id = Ld_models.Labelled.Id
module Colouring = Ld_models.Edge_colouring
module Packing = Ld_matching.Packing
module Mm_ec = Ld_matching.Mm_ec
module II = Ld_matching.Israeli_itai
module Packed_pr = Ld_matching.Packed_pr
module Csr = Ld_graph.Csr
module Greedy = Ld_fm.Greedy
module Maximum = Ld_fm.Maximum
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q

let zoo g name =
  Printf.printf "\n--- %s: n=%d, m=%d, delta=%d ---\n" name (G.n g) (G.m g)
    (G.max_degree g);
  let ec = Colouring.ec_of_simple g in
  (* fractional, EC model, O(Δ) rounds *)
  let y = Packing.greedy_by_colour ec in
  Printf.printf "  %-34s rounds=%-4d total=%-8s maximal=%b\n"
    "greedy edge packing   (EC, O(Δ))" (Packing.greedy_rounds ec)
    (Q.to_string (Fm.total y)) (Fm.is_maximal_fm y);
  let yp, rp = Packing.proposal ec in
  Printf.printf "  %-34s rounds=%-4d total=%-8s maximal=%b\n"
    "proposal edge packing (PO-ready)" rp
    (Q.to_string (Fm.total yp)) (Fm.is_maximal_fm yp);
  (* integral, EC model *)
  let mm = Mm_ec.greedy ec in
  Printf.printf "  %-34s rounds=%-4d size=%-9d maximal=%b\n"
    "greedy matching       (EC, O(Δ))" mm.Mm_ec.rounds
    (List.length mm.Mm_ec.matched_edges)
    (Mm_ec.is_maximal ec mm);
  (* integral, ID model *)
  let idg = Id.trivial g in
  let ii = II.run ~seed:1 ~max_rounds:10000 idg in
  let size mate =
    Array.fold_left (fun a m -> if m <> None then a + 1 else a) 0 mate / 2
  in
  Printf.printf "  %-34s rounds=%-4d size=%-9d maximal=%b\n"
    "Israeli-Itai          (ID, O(log n) rand.)" ii.II.rounds (size ii.II.mate)
    (II.is_maximal g ii);
  let csr = Csr.greedy g in
  let pr, _ = Packed_pr.run csr in
  Printf.printf "  %-34s rounds=%-4d size=%-9d maximal=%b\n"
    "Panconesi-Rizzi       (ID, O(Δ+log* n))" pr.Packed_pr.rounds
    (size (Array.map (fun w -> if w >= 0 then Some w else None) pr.mate))
    (Packed_pr.is_maximal csr pr);
  (* centralised references *)
  Printf.printf "  %-34s             total=%-8s (ν_f = %s)\n"
    "centralised greedy FM / optimum"
    (Q.to_string (Fm.total (Greedy.maximal_fm ec)))
    (Q.to_string (Maximum.value g))

let () =
  zoo (Gen.path 17) "path";
  zoo (Gen.cycle 12) "cycle";
  zoo (Gen.spider ~delta:8 ~tail:3) "spider (Δ=8)";
  zoo (Gen.hypercube 5) "hypercube (d=5)";
  zoo (Gen.random_bounded_degree ~seed:4 50 6) "random, Δ<=6";
  zoo (Gen.complete_bipartite 6 9) "K_{6,9}"
