module Ec = Ld_models.Ec
module Obs = Ld_obs.Obs

module Inbox = struct
  type 'msg t = 'msg Anon.Inbox.t

  let degree = Anon.Inbox.degree
  let colour = Anon.Inbox.key
  let msg = Anon.Inbox.msg
  let find ib ~colour = Anon.Inbox.find ib colour
  let find_or ib ~colour ~default = Anon.Inbox.find_or ib colour ~default
  let fold f = Anon.Inbox.fold (fun acc colour m -> f acc ~colour m)

  let to_list ib =
    List.rev (fold (fun acc ~colour m -> (colour, m) :: acc) [] ib)
end

module Colours = struct
  type t = unit Anon.Inbox.t

  let degree = Anon.Inbox.degree
  let get = Anon.Inbox.key
end

type ('state, 'msg) machine = {
  init : Colours.t -> 'state;
  send : 'state -> 'msg;
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

let fam = Anon.family "runtime.ec"
let default_par_threshold = Engine.default_par_threshold

(* Dart keys are the colours themselves: the edge table and the loop
   run are read in place, a node's colours through the same merged view
   its inboxes give. *)
let prepare machine g =
  let darts = Ec.edge_darts g in
  let loops = { Anon.lrow = Ec.loop_row g; lkeys = Ec.loop_colour g } in
  (darts, loops, Anon.init ~loops darts machine.init)

let run_until ?(par_threshold = default_par_threshold) ?domains machine
    ~max_rounds g =
  Obs.with_span "runtime.ec.run" @@ fun () ->
  let darts, loops, states = prepare machine g in
  Anon.run fam ~par_threshold ~domains ~limit:max_rounds ~send:machine.send
    ~recv:machine.recv ~halted:machine.halted ~loops darts states

let run ?par_threshold ?domains machine ~rounds g =
  fst (run_until ?par_threshold ?domains machine ~max_rounds:rounds g)

let reference_run machine ~max_rounds g =
  let darts, loops, states = prepare machine g in
  Anon.reference ~limit:max_rounds ~send:machine.send ~recv:machine.recv
    ~halted:machine.halted ~loops darts states
