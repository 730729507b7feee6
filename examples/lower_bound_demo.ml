(* The Section 4 adversary in action: watch the unfold-and-mix
   construction certify that the O(Δ) algorithm cannot be beaten, and
   watch it refute a truncated (fast) algorithm with a concrete
   counterexample graph.

     dune exec examples/lower_bound_demo.exe *)

module LB = Ld_core.Lower_bound
module Packing = Ld_matching.Packing
module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm
module Q = Ld_arith.Q

let delta = 5

let () =
  Printf.printf "=== adversary vs the full O(Δ) algorithm (Δ = %d) ===\n" delta;
  (match LB.run ~delta Packing.greedy_algorithm with
  | LB.Certified certs ->
    List.iter
      (fun c ->
        Format.printf "%a@." LB.pp_certificate c;
        if c.LB.level = 0 then begin
          (* Figure 5: the base case pair, in full. *)
          Format.printf "  (Fig. 5) G_0 = %a@." Ec.pp (LB.force c.LB.g_graph);
          Format.printf "  (Fig. 5) H_0 = %a@." Ec.pp (LB.force c.LB.h_graph)
        end)
      certs;
    Printf.printf
      "every level i has isomorphic radius-i views with different outputs:\n\
       any algorithm computing these outputs needs more than %d rounds.\n"
      (delta - 2)
  | LB.Refuted (_, f) -> Format.printf "unexpected: %a@." LB.pp_failure f);

  Printf.printf "\n=== adversary vs a truncated, genuinely fast algorithm ===\n";
  let r = 3 in
  match LB.run ~delta (Packing.truncated `Greedy r) with
  | LB.Certified _ -> Printf.printf "unexpected certification\n"
  | LB.Refuted (certs, f) ->
    Printf.printf "truncated to %d rounds: survived %d levels, then failed.\n" r
      (List.length certs);
    Format.printf "%a@." LB.pp_failure f;
    Format.printf "the failing loopy multigraph: %a@." Ec.pp f.LB.fail_graph;
    let unsat =
      List.filter
        (fun v -> not (Fm.is_saturated f.LB.fail_output v))
        (List.init (Ec.n f.LB.fail_graph) Fun.id)
    in
    Printf.printf "unsaturated nodes: [%s]\n"
      (String.concat "; " (List.map string_of_int unsat));
    (* Lemma 2 / Fig. 4: the same failure on a simple (loop-free) graph. *)
    let lifted = Fm.pull_back f.LB.fail_lift f.LB.fail_output in
    Printf.printf
      "on the loop-free 2-lift (%d nodes): still maximal? %b — fast implies \
       wrong, on ordinary simple graphs too.\n"
      (Ec.n f.LB.fail_lift.total)
      (Fm.is_maximal_fm lifted)
