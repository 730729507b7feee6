module Ec = Ld_models.Ec
module Obs = Ld_obs.Obs

module Inbox = struct
  type 'msg t = 'msg Anon.Inbox.t

  let degree = Anon.Inbox.degree
  let colour = Anon.Inbox.key
  let msg = Anon.Inbox.msg
  let find ib ~colour = Anon.Inbox.find ib colour
  let fold f = Anon.Inbox.fold (fun acc colour m -> f acc ~colour m)

  let to_list ib =
    List.rev (fold (fun acc ~colour m -> (colour, m) :: acc) [] ib)
end

type ('state, 'msg) machine = {
  init : colours:int array -> lo:int -> hi:int -> 'state;
  send : 'state -> 'msg;
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

let fam = Anon.family "runtime.ec"
let default_par_threshold = Engine.default_par_threshold

(* Dart keys are the colours themselves, so a node's colours are its
   segment of the key array, handed over in place. *)
let prepare machine g =
  let ({ Ld_models.Darts.row; key; _ } as t) = Ec.csr g in
  let states =
    Array.init (Ec.n g) (fun v ->
        machine.init ~colours:key ~lo:row.(v) ~hi:row.(v + 1))
  in
  (t, states)

let run_until ?(par_threshold = default_par_threshold) ?domains machine
    ~max_rounds g =
  Obs.with_span "runtime.ec.run" @@ fun () ->
  let csr, states = prepare machine g in
  Anon.run fam ~par_threshold ~domains ~limit:max_rounds ~send:machine.send
    ~recv:machine.recv ~halted:machine.halted csr states

let run ?par_threshold ?domains machine ~rounds g =
  fst (run_until ?par_threshold ?domains machine ~max_rounds:rounds g)

let reference_run machine ~max_rounds g =
  let csr, states = prepare machine g in
  Anon.reference ~limit:max_rounds ~send:machine.send ~recv:machine.recv
    ~halted:machine.halted csr states
