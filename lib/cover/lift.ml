module Ec = Ld_models.Ec

type covering = { total : Ec.t; base : Ec.t; map : int array }

let is_covering { total; base; map } =
  Array.length map = Ec.n total
  && Array.for_all (fun b -> b >= 0 && b < Ec.n base) map
  && begin
       (* Surjectivity. *)
       let hit = Array.make (Ec.n base) false in
       Array.iter (fun b -> hit.(b) <- true) map;
       Array.for_all Fun.id hit
     end
  &&
  (* Dart-level local bijection: since colourings are proper, it is
     enough that at every total node the colour set matches the base
     node's colour set and every dart's target projects correctly. *)
  begin
    let pair_compare (a1, a2) (b1, b2) =
      let c = Int.compare a1 b1 in
      if c <> 0 then c else Int.compare a2 b2
    in
    let ok = ref true in
    for v = 0 to Ec.n total - 1 do
      let total_sig =
        List.map
          (fun d ->
            match d with
            | Ec.To_neighbour { neighbour; colour; _ } -> (colour, map.(neighbour))
            | Ec.Into_loop { colour; _ } -> (colour, map.(v)))
          (Ec.darts total v)
      in
      let base_sig =
        List.map
          (fun d ->
            match d with
            | Ec.To_neighbour { neighbour; colour; _ } -> (colour, neighbour)
            | Ec.Into_loop { colour; _ } -> (colour, map.(v)))
          (Ec.darts base map.(v))
      in
      if
        not
          (List.equal
             (fun x y -> pair_compare x y = 0)
             (List.sort pair_compare total_sig)
             (List.sort pair_compare base_sig))
      then ok := false
    done;
    !ok
  end

(* Unfolding is the splice of [g] with itself at the loop: copy A keeps
   the base ids, copy B follows shifted, the crossing edge comes last.
   [double] builds its columns directly with maps and blits (no records,
   no lists) in the same order, extras last. Both map node [v] of either
   copy to [v]. *)

let two_copies n =
  let map = Array.make (2 * n) 0 in
  for v = 0 to n - 1 do
    map.(v) <- v;
    map.(n + v) <- v
  done;
  map

let unfold_loop g ~loop_id =
  {
    total = Ec.splice g ~loop:loop_id g ~loop:loop_id;
    base = g;
    map = two_copies (Ec.n g);
  }

let double g =
  let n = Ec.n g in
  let c = Ec.columns g in
  let shift a = Array.map (fun v -> v + n) a in
  let total =
    Ec.of_columns ~n:(2 * n)
      {
        edge_u = Array.concat [ c.edge_u; shift c.edge_u; c.loop_node ];
        edge_v = Array.concat [ c.edge_v; shift c.edge_v; shift c.loop_node ];
        edge_colour = Array.concat [ c.edge_colour; c.edge_colour; c.loop_colour ];
        loop_node = [||];
        loop_colour = [||];
      }
  in
  { total; base = g; map = two_copies n }

(* Round-robin schedule: in round r, team f-1 plays team r, and team
   (r + i) plays (r - i) modulo f - 1 for i = 1 .. f/2 - 1. *)
let one_factorisation f =
  if f <= 0 || f mod 2 <> 0 then invalid_arg "Lift.one_factorisation: f must be even";
  let m = f - 1 in
  List.init m (fun r ->
      (m, r)
      :: List.init ((f / 2) - 1) (fun k ->
             let i = k + 1 in
             (((r + i) mod m + m) mod m, ((r - i) mod m + m) mod m)))

let simple_lift g =
  let n = Ec.n g in
  let max_loops = ref 0 in
  for v = 0 to n - 1 do
    max_loops := Stdlib.max !max_loops (List.length (Ec.loops_at g v))
  done;
  if !max_loops = 0 then { total = g; base = g; map = Array.init n Fun.id }
  else begin
    let f = if (!max_loops + 1) mod 2 = 0 then !max_loops + 1 else !max_loops + 2 in
    let matchings = Array.of_list (one_factorisation f) in
    let node v i = (v * f) + i in
    let edges =
      List.concat_map
        (fun (e : Ec.edge) ->
          List.init f (fun i -> (node e.u i, node e.v i, e.colour)))
        (Ec.edges g)
    in
    (* The j-th loop at each node uses the j-th matching of K_f, so the
       loops' lifted edges inside a fiber are pairwise disjoint. *)
    let loop_edges =
      List.concat_map
        (fun v ->
          List.concat
            (List.mapi
               (fun j loop_id ->
                 let l = Ec.loop g loop_id in
                 List.map
                   (fun (a, b) -> (node v a, node v b, l.colour))
                   matchings.(j))
               (Ec.loops_at g v)))
        (List.init n Fun.id)
    in
    let total = Ec.create ~n:(n * f) ~edges:(edges @ loop_edges) ~loops:[] in
    { total; base = g; map = Array.init (n * f) (fun x -> x / f) }
  end

let compose outer inner =
  if not (Ec.equal inner.base outer.total) then
    invalid_arg "Lift.compose: inner base does not match outer total";
  {
    total = inner.total;
    base = outer.base;
    map = Array.map (fun v -> outer.map.(v)) inner.map;
  }

let identity g = { total = g; base = g; map = Array.init (Ec.n g) Fun.id }
