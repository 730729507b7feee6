module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
module Refinement = Ld_cover.Refinement

type violation = {
  graph_a : int;
  node_a : int;
  graph_b : int;
  node_b : int;
  radius : int;
}

(* A node's local output: the weight on each of its dart colours. *)
let node_output y v =
  List.map
    (fun d -> (Ec.dart_colour d, Fm.dart_weight y d))
    (Ec.darts (Fm.graph y) v)

let violation_at ~radius (algo : Lower_bound.algorithm) probes =
  let outputs = List.map algo.run probes in
  (* One refinement over the disjoint union keeps labels comparable
     across probes. *)
  let union = List.fold_left Ec.disjoint_union (Ec.create ~n:0 ~edges:[] ~loops:[]) probes in
  let history = Refinement.refine_ec union ~rounds:radius in
  let labels = history.(radius) in
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) g -> (off + Ec.n g, off :: acc))
            (0, []) probes))
  in
  (* Group nodes by label; within a group, all outputs must agree. *)
  let table : (int, (int * int * (int * Q.t) list)) Hashtbl.t = Hashtbl.create 64 in
  let found = ref None in
  List.iteri
    (fun gi g ->
      let off = List.nth offsets gi in
      let y = List.nth outputs gi in
      for v = 0 to Ec.n g - 1 do
        if !found = None then begin
          let label = labels.(off + v) in
          let out = node_output y v in
          match Hashtbl.find_opt table label with
          | None -> Hashtbl.add table label (gi, v, out)
          | Some (gj, w, out') ->
            let equal_outputs =
              List.length out = List.length out'
              && List.for_all2
                   (fun (c, q) (c', q') -> c = c' && Q.equal q q')
                   out out'
            in
            if not equal_outputs then
              found :=
                Some { graph_a = gj; node_a = w; graph_b = gi; node_b = v; radius }
        end
      done)
    probes;
  !found

let empirical_locality ~max_radius algo probes =
  let rec scan t =
    if t > max_radius then None
    else if violation_at ~radius:t algo probes = None then Some t
    else scan (t + 1)
  in
  scan 0

let probes_of_certificates certs =
  List.concat_map
    (fun (c : Lower_bound.certificate) ->
      [ Lower_bound.force c.g_graph; Lower_bound.force c.h_graph ])
    certs

let id_local_at ~radius ~run ~equal idg v =
  let full = run idg in
  let ball = Ld_cover.Ball.extract idg v ~radius in
  let local = run ball.Ld_cover.Ball.ball_graph in
  equal full.(v) local.(ball.Ld_cover.Ball.root)
