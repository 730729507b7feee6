module Ec = Ld_models.Ec
module Obs = Ld_obs.Obs

let fam = Anon.family "runtime.ec"

(* Dart keys are the colours themselves: the edge table and the loop
   run are read in place. *)
let loops g = { Anon.lrow = Ec.loop_row g; lkeys = Ec.loop_colour g }

let run_until ?(par_threshold = Engine.default_par_threshold) ?domains machine
    ~max_rounds g =
  Obs.with_span "runtime.ec.run" @@ fun () ->
  Anon.run fam ~par_threshold ~domains ~limit:max_rounds ~loops:(loops g)
    machine (Ec.edge_darts g)

let run ?par_threshold ?domains machine ~rounds g =
  fst (run_until ?par_threshold ?domains machine ~max_rounds:rounds g)

let reference_run machine ~max_rounds g =
  Anon.reference ~limit:max_rounds ~loops:(loops g) machine (Ec.edge_darts g)
