let bits_needed x =
  if x < 0 then invalid_arg "Cole_vishkin.bits_needed: negative";
  let rec go n acc = if n = 0 then Stdlib.max acc 1 else go (n lsr 1) (acc + 1) in
  go x 0

(* Lowest set bit of [diff] at or above [i]; [diff] is nonzero. *)
let rec lowest_set diff i =
  if (diff lsr i) land 1 = 1 then i else lowest_set diff (i + 1)

let step ~mine ~parent =
  if mine = parent then invalid_arg "Cole_vishkin.step: equal colours";
  let i = lowest_set (mine lxor parent) 0 in
  (2 * i) + ((mine lsr i) land 1)

let virtual_parent mine = if mine <> 0 then 0 else 1

let iterations_for_bits bits =
  (* One step maps values below 2^m to values below 2m. *)
  let rec go bound acc =
    if bound <= 6 then acc else go (2 * bits_needed (bound - 1)) (acc + 1)
  in
  go (1 lsl Stdlib.min bits 62) 0

let reduce_forest ~parent ~init =
  let n = Array.length parent in
  if Array.length init <> n then invalid_arg "Cole_vishkin.reduce_forest: lengths";
  Array.iteri
    (fun v p ->
      if p >= 0 && init.(v) = init.(p) then
        invalid_arg "Cole_vishkin.reduce_forest: initial clash")
    parent;
  let colours = ref (Array.copy init) in
  let iterations = ref 0 in
  let all_small () = Array.for_all (fun c -> c < 6) !colours in
  while not (all_small ()) do
    incr iterations;
    let prev = !colours in
    colours :=
      Array.mapi
        (fun v _ ->
          let p =
            if parent.(v) >= 0 then prev.(parent.(v)) else virtual_parent prev.(v)
          in
          step ~mine:prev.(v) ~parent:p)
        prev
  done;
  (!colours, !iterations)
