(* Sorted [arity]-subsets of a sorted list. *)
let rec subsets k list =
  if k = 0 then [ [] ]
  else
    match list with
    | [] -> []
    | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let monochromatic_subset ~universe ~arity ~(colour : int list -> int) ~size =
  let universe = List.sort_uniq Int.compare universe in
  if size < arity then invalid_arg "Ramsey.monochromatic_subset: size < arity";
  (* Backtracking: grow a candidate subset; whenever it reaches [arity]
     elements the colour of every new tuple must match the first one. *)
  let rec grow chosen target rest =
    if List.length chosen = size then Some (List.rev chosen)
    else begin
      let rec try_elements = function
        | [] -> None
        | x :: more -> begin
          let chosen' = x :: chosen in
          (* tuples completed by adding x *)
          let new_tuples =
            if List.length chosen' < arity then []
            else
              List.map
                (fun s -> List.sort Int.compare (x :: s))
                (subsets (arity - 1) (List.rev chosen))
          in
          let target', ok =
            List.fold_left
              (fun (t, ok) tuple ->
                if not ok then (t, false)
                else begin
                  let c = colour tuple in
                  match t with
                  | None -> (Some c, true)
                  | Some c0 -> (t, c = c0)
                end)
              (target, true) new_tuples
          in
          match (ok, if ok then grow chosen' target' more else None) with
          | true, Some s -> Some s
          | _ -> try_elements more
        end
      in
      try_elements rest
    end
  in
  grow [] None universe

let order_invariant_identifiers ~universe ~nodes ~indicator ~size =
  let colour tuple =
    let pattern = indicator (Array.of_list tuple) in
    Array.fold_left (fun acc b -> (acc * 2) + if b then 1 else 0) 0 pattern
  in
  monochromatic_subset ~universe ~arity:nodes ~colour ~size

let sparsify ~gap ids =
  let ids = List.sort_uniq Int.compare ids in
  List.filteri (fun i _ -> i mod (gap + 1) = 0) ids

let relabelling_stable ~ids ~nodes ~run ~equal =
  let assignments = subsets nodes (List.sort_uniq Int.compare ids) in
  match List.map (fun a -> run (Array.of_list a)) assignments with
  | [] -> true
  | first :: rest -> List.for_all (equal first) rest
