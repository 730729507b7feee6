module Po = Ld_models.Po
module Obs = Ld_obs.Obs

let fam = Anon.family "runtime.po"

(* The table's keys ascend along each segment (out-darts by colour, then
   in-darts by colour), and its loop darts reflect in place. *)
let run_until ?(par_threshold = Engine.default_par_threshold) ?domains machine
    ~max_rounds g =
  Obs.with_span "runtime.po.run" @@ fun () ->
  Anon.run fam ~par_threshold ~domains ~limit:max_rounds machine (Po.csr g)

let run ?par_threshold ?domains machine ~rounds g =
  fst (run_until ?par_threshold ?domains machine ~max_rounds:rounds g)

let reference_run machine ~max_rounds g =
  Anon.reference ~limit:max_rounds machine (Po.csr g)
