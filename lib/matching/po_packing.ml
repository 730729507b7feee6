module Po = Ld_models.Po
module Po_fm = Ld_fm.Po_fm
module Anon_po = Ld_runtime.Anon_po

let proposal ?truncate g =
  let m = Packing.proposal_machine in
  let states, rounds =
    match truncate with
    | None -> Anon_po.run_until m ~max_rounds:(Po.n g + 2) g
    | Some r ->
      if r < 0 then invalid_arg "Po_packing.proposal: negative truncation";
      (Anon_po.run m ~rounds:r g, r)
  in
  match Po_fm.of_key_weights g (fun v k -> Packing.proposal_weight states.(v) k) with
  | Ok y -> (y, rounds)
  | Error _ -> assert false (* both ends of an arc add the same minimum *)

type algorithm = { name : string; run : Po.t -> Po_fm.t }

let proposal_algorithm =
  { name = "po-proposal"; run = (fun g -> fst (proposal g)) }
