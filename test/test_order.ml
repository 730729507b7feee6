(* The Appendix A canonical order: Lemma 4's properties as executable
   checks on random tree addresses. *)

module O = Ld_order.Tree_order

let step_gen =
  QCheck.map
    (fun (fwd, colour) -> { O.fwd; colour })
    (QCheck.pair QCheck.bool (QCheck.int_range 1 3))

let address_gen =
  QCheck.map O.normalize (QCheck.list_of_size (QCheck.Gen.int_range 0 7) step_gen)

let normalize_cancels () =
  let s c = { O.fwd = true; colour = c } in
  let inv c = { O.fwd = false; colour = c } in
  Alcotest.(check int) "fwd then bwd cancels" 0
    (List.length (O.normalize [ s 1; inv 1 ]));
  Alcotest.(check int) "nested cancellation" 0
    (List.length (O.normalize [ s 1; s 2; inv 2; inv 1 ]));
  Alcotest.(check int) "non-inverse stays" 2 (List.length (O.normalize [ s 1; s 2 ]));
  (* same colour, same direction does NOT cancel *)
  Alcotest.(check int) "repeat stays" 2 (List.length (O.normalize [ s 1; s 1 ]))

let bracket_antisymmetric =
  QCheck.Test.make ~count:300 ~name:"⟦x⇝y⟧ = -⟦y⇝x⟧"
    (QCheck.pair address_gen address_gen)
    (fun (x, y) -> O.bracket x y = -O.bracket y x)

let bracket_odd =
  QCheck.Test.make ~count:300 ~name:"⟦x⇝y⟧ odd for distinct nodes (totality)"
    (QCheck.pair address_gen address_gen)
    (fun (x, y) -> O.equal x y || abs (O.bracket x y) mod 2 = 1)

let order_transitive =
  QCheck.Test.make ~count:500 ~name:"transitivity"
    (QCheck.triple address_gen address_gen address_gen)
    (fun (x, y, z) ->
      if O.compare x y < 0 && O.compare y z < 0 then O.compare x z < 0 else true)

let order_total_antisym =
  QCheck.Test.make ~count:300 ~name:"comparisons are a strict total order"
    (QCheck.pair address_gen address_gen)
    (fun (x, y) ->
      let c = O.compare x y and c' = O.compare y x in
      if O.equal x y then c = 0 && c' = 0 else c = -c' && c <> 0)

let order_homogeneous =
  QCheck.Test.make ~count:300
    ~name:"homogeneity: translation by any node preserves the order (Lemma 4)"
    (QCheck.triple address_gen address_gen address_gen)
    (fun (z, x, y) ->
      O.compare (O.concat z x) (O.concat z y) = O.compare x y)

let sort_agrees_with_compare () =
  let s c = { O.fwd = true; colour = c } in
  let i c = { O.fwd = false; colour = c } in
  let nodes = [ []; [ s 1 ]; [ i 1 ]; [ s 2 ]; [ s 1; s 2 ]; [ i 2; s 1 ] ] in
  let sorted = O.sort_nodes nodes in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> O.compare a b < 0 && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted strictly" true (strictly_increasing sorted);
  Alcotest.(check int) "same cardinality" (List.length nodes) (List.length sorted)

let bracket_hand_example () =
  (* A two-step path o -> (+1) -> (+1 -2): edges +1 (out of origin: +1
     term) and -2. Walk from x=[] to y=[+1;-2]: edge terms: +1 (fwd),
     -1 (bwd) = 0; interior node term at [+1]: arrival dart of step +1 =
     (in,1); departure dart of step -2 = (in,2); (1,1) < (1,2) so +1.
     Total = +1, so origin ≺ y. *)
  let y = [ { O.fwd = true; colour = 1 }; { O.fwd = false; colour = 2 } ] in
  Alcotest.(check int) "bracket" 1 (O.bracket [] y);
  Alcotest.(check int) "compare" (-1) (O.compare [] y)

let concat_normalizes =
  QCheck.Test.make ~count:200 ~name:"concat output is reduced"
    (QCheck.pair address_gen address_gen)
    (fun (a, b) ->
      let c = O.concat a b in
      O.equal (O.normalize c) c)

let () =
  Alcotest.run "order"
    [
      ( "normalize",
        [
          Alcotest.test_case "cancellation" `Quick normalize_cancels;
          QCheck_alcotest.to_alcotest concat_normalizes;
        ] );
      ( "lemma4",
        [
          QCheck_alcotest.to_alcotest bracket_antisymmetric;
          QCheck_alcotest.to_alcotest bracket_odd;
          QCheck_alcotest.to_alcotest order_transitive;
          QCheck_alcotest.to_alcotest order_total_antisym;
          QCheck_alcotest.to_alcotest order_homogeneous;
          Alcotest.test_case "sorting" `Quick sort_agrees_with_compare;
          Alcotest.test_case "hand example" `Quick bracket_hand_example;
        ] );
    ]
