module Po = Ld_models.Po
module Obs = Ld_obs.Obs

type dart_key = { out : bool; colour : int }

(* A dart's int key: its colour, with [in_bit] set on in-darts, so keys
   ascend along the CSR segment (out-darts by colour, then in-darts by
   colour) and [Anon.Inbox.find] binary-searches them directly. *)
let in_bit = 1 lsl 61
let encode { out; colour } = if out then colour else colour lor in_bit
let decode k = { out = k land in_bit = 0; colour = k land (in_bit - 1) }

module Inbox = struct
  type 'msg t = 'msg Anon.Inbox.t

  let degree = Anon.Inbox.degree
  let key ib i = decode (Anon.Inbox.key ib i)
  let msg = Anon.Inbox.msg
  let find ib ~key = Anon.Inbox.find ib (encode key)
  let fold f = Anon.Inbox.fold (fun acc k m -> f acc ~key:(decode k) m)
  let to_list ib = List.rev (fold (fun acc ~key m -> (key, m) :: acc) [] ib)
end

type ('state, 'msg) machine = {
  init : darts:dart_key list -> 'state;
  send : 'state -> 'msg;
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

let fam = Anon.family "runtime.po"
let default_par_threshold = Engine.default_par_threshold

let prepare machine g =
  let { Po.row; colour; dir; other; _ } = Po.csr g in
  let keys =
    Array.mapi (fun d colour -> encode { out = dir.(d) = 0; colour }) colour
  in
  let states =
    Array.init (Po.n g) (fun v ->
        let lo = row.(v) and hi = row.(v + 1) in
        machine.init ~darts:(List.init (hi - lo) (fun i -> decode keys.(lo + i))))
  in
  ({ Anon.row; keys; others = other }, states)

let run_until ?(par_threshold = default_par_threshold) ?domains machine
    ~max_rounds g =
  Obs.with_span "runtime.po.run" @@ fun () ->
  let csr, states = prepare machine g in
  Anon.run fam ~par_threshold ~domains ~limit:max_rounds ~send:machine.send
    ~recv:machine.recv ~halted:machine.halted csr states

let run ?par_threshold ?domains machine ~rounds g =
  fst (run_until ?par_threshold ?domains machine ~max_rounds:rounds g)

let reference_run machine ~max_rounds g =
  let csr, states = prepare machine g in
  Anon.reference ~limit:max_rounds ~send:machine.send ~recv:machine.recv
    ~halted:machine.halted csr states
