module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm

(* ---- files: one chain's level records (Cache_store) ---- *)

let save path cache =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Cache_store.chain_to_string cache))

let load ~delta path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Lower_bound.cache_outcome (Cache_store.chain_of_string ~delta text) with
  | Lower_bound.Certified certs | Lower_bound.Refuted (certs, _) -> certs

(* ---- verification ---- *)

type check = {
  chk_level : int;
  chk_structure : bool;
  chk_views : bool;
  chk_weights_differ : bool;
  chk_outputs : bool option;
}

let check_ok c =
  c.chk_structure && c.chk_views && c.chk_weights_differ
  && (match c.chk_outputs with Some false -> false | Some true | None -> true)

let verify ?algorithm ~delta certs =
  List.map
    (fun (c : Lower_bound.certificate) ->
      let g_graph = Lower_bound.force c.g_graph
      and h_graph = Lower_bound.force c.h_graph in
      let loop_ok g loop_id node =
        loop_id >= 0
        && loop_id < Ec.num_loops g
        &&
        let l = Ec.loop g loop_id in
        l.colour = c.colour && l.node = node
      in
      (* The adversary's levels run 0 .. Δ - 2; a claimed level outside
         that range would print an unchecked round bound. *)
      let chk_structure =
        0 <= c.level
        && c.level <= delta - 2
        && loop_ok g_graph c.g_loop c.g_node
        && loop_ok h_graph c.h_loop c.h_node
        && Ec.min_loops g_graph >= delta - 1 - c.level
        && Ec.min_loops h_graph >= delta - 1 - c.level
        && Ec.max_degree g_graph <= delta
        && Ec.max_degree h_graph <= delta
        && Ec.is_tree_plus_loops g_graph
        && Ec.is_tree_plus_loops h_graph
      in
      let chk_views =
        chk_structure
        && Ld_cover.Refinement.equivalent_radius g_graph c.g_node h_graph
             c.h_node ~radius:c.level
      in
      let chk_weights_differ = not (Q.equal c.g_weight c.h_weight) in
      let chk_outputs =
        match algorithm with
        | None -> None
        | Some (a : Lower_bound.algorithm) ->
          if not chk_structure then Some false
          else begin
            let yg = a.run g_graph and yh = a.run h_graph in
            Some
              (Q.equal (Fm.loop_weight yg c.g_loop) c.g_weight
              && Q.equal (Fm.loop_weight yh c.h_loop) c.h_weight)
          end
      in
      { chk_level = c.level; chk_structure; chk_views; chk_weights_differ; chk_outputs })
    certs

let pp_check fmt c =
  Format.fprintf fmt
    "level %d: structure %s, views %s, weights differ %s, outputs %s"
    c.chk_level
    (if c.chk_structure then "ok" else "FAIL")
    (if c.chk_views then "isomorphic" else "FAIL")
    (if c.chk_weights_differ then "ok" else "FAIL")
    (match c.chk_outputs with
    | None -> "not re-run"
    | Some true -> "reproduced"
    | Some false -> "FAIL")
