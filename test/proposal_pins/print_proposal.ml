(* Prints, per graph, what the proposal dynamics compute: the round
   count, every edge (arc) and loop weight as an exact rational, and the
   runtime.{ec,po}.{darts_scanned,sends} counters of the run. *)

module Q = Ld_arith.Q
module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Gen = Ld_graph.Generators
module Obs = Ld_obs.Obs
module Fm = Ld_fm.Fm
module Po_fm = Ld_fm.Po_fm

let counted family f =
  let before = Obs.Counter.snapshot_all () in
  let r = f () in
  let d = Obs.Counter.diff before (Obs.Counter.snapshot_all ()) in
  let get what =
    Option.value ~default:0 (List.assoc_opt (family ^ "." ^ what) d)
  in
  (r, get "darts_scanned", get "sends")

let weights what ws =
  Printf.printf "  %s:%s\n" what
    (String.concat "" (Array.to_list (Array.map (fun w -> " " ^ Q.to_string w) ws)))

let ec name ?truncate g =
  let (y, rounds), darts, sends =
    counted "runtime.ec" (fun () -> Ld_matching.Packing.proposal ?truncate g)
  in
  Printf.printf "ec %s: rounds %d, darts_scanned %d, sends %d\n" name rounds
    darts sends;
  weights "edges" (Fm.edge_weights y);
  weights "loops" (Fm.loop_weights y)

let po name ?truncate g =
  let (y, rounds), darts, sends =
    counted "runtime.po" (fun () -> Ld_matching.Po_packing.proposal ?truncate g)
  in
  Printf.printf "po %s: rounds %d, darts_scanned %d, sends %d\n" name rounds
    darts sends;
  weights "arcs" (Array.init (Po.num_arcs g) (Po_fm.arc_weight y));
  weights "loops" (Array.init (Po.num_loops g) (Po_fm.loop_weight y))

let () =
  Obs.enable ();
  let spider =
    Ld_models.Edge_colouring.ec_of_simple (Gen.spider ~delta:5 ~tail:3)
  in
  ec "spider delta=5 tail=3" spider;
  ec "spider delta=5 tail=3, truncated at 1" ~truncate:1 spider;
  po "spider delta=5 tail=3" (Po.of_ec spider);
  po "spider delta=5 tail=3, truncated at 1" ~truncate:1 (Po.of_ec spider);
  po "port-numbered 4-cycle (Fig. 2 style)"
    (Po.of_ports ~n:4
       ~connections:[ (0, 1, 1, 1); (1, 2, 2, 1); (2, 2, 3, 1); (3, 2, 0, 2) ]);
  po "arc with a directed loop at each end"
    (Po.create ~n:2 ~arcs:[ (0, 1, 1) ] ~loops:[ (0, 2); (1, 2) ]);
  po "directed triangle with loops"
    (Po.create ~n:3
       ~arcs:[ (0, 1, 1); (1, 2, 1); (2, 0, 2) ]
       ~loops:[ (0, 3); (1, 2); (2, 3) ]);
  (* A caterpillar's edge colouring, plus loops on the colours its
     nodes leave free up to one above the largest: between the edge
     colours as well as above them. *)
  let tree =
    Ld_models.Edge_colouring.ec_of_simple (Gen.caterpillar ~spine:4 ~legs:2)
  in
  let top = Ec.max_colour tree + 1 in
  let interleaved =
    Ec.create ~n:(Ec.n tree)
      ~edges:(List.map (fun (e : Ec.edge) -> (e.u, e.v, e.colour)) (Ec.edges tree))
      ~loops:
        (List.concat_map
           (fun v ->
             List.filter_map
               (fun c ->
                 if Option.is_none (Ec.dart_by_colour tree v c) && (v + c) mod 3 <> 0
                 then Some (v, c)
                 else None)
               (List.init top (fun i -> i + 1)))
           (List.init (Ec.n tree) Fun.id))
  in
  ec "caterpillar with loops between its edge colours" interleaved;
  po "caterpillar with loops between its edge colours" (Po.of_ec interleaved);
  let random = Ld_models.Edge_colouring.ec_of_simple (Gen.random_tree ~seed:3 12) in
  ec "random tree n=12 seed=3" random;
  po "random tree n=12 seed=3" (Po.of_ec random)
