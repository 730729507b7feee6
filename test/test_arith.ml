(* Exact arithmetic: Z against native ints, Q field laws. *)

module Z = Ld_arith.Z
module Q = Ld_arith.Q

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let z_matches_native =
  QCheck.Test.make ~count:500 ~name:"Z add/sub/mul/div/rem match native ints"
    (QCheck.pair small_int small_int)
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      Z.to_int (Z.add za zb) = a + b
      && Z.to_int (Z.sub za zb) = a - b
      && Z.to_int (Z.mul za zb) = a * b
      && (b = 0
         || Z.to_int (Z.div za zb) = a / b && Z.to_int (Z.rem za zb) = a mod b)
      && Z.compare za zb = Int.compare a b)

let z_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Z decimal round-trip" small_int (fun a ->
      Z.to_int (Z.of_string (string_of_int a)) = a
      && Z.to_string (Z.of_int a) = string_of_int a)

let z_gcd_props =
  QCheck.Test.make ~count:500 ~name:"Z gcd divides and is symmetric"
    (QCheck.pair small_int small_int)
    (fun (a, b) ->
      let g = Z.gcd (Z.of_int a) (Z.of_int b) in
      Z.equal g (Z.gcd (Z.of_int b) (Z.of_int a))
      && (Z.is_zero g
          || Z.is_zero (Z.rem (Z.of_int a) g) && Z.is_zero (Z.rem (Z.of_int b) g)))

let z_big_values () =
  let p = Z.pow (Z.of_int 2) 100 in
  Alcotest.(check string)
    "2^100" "1267650600228229401496703205376" (Z.to_string p);
  let q, r = Z.divmod p (Z.of_int 1000) in
  Alcotest.(check string) "2^100 / 1000" "1267650600228229401496703205" (Z.to_string q);
  Alcotest.(check string) "2^100 mod 1000" "376" (Z.to_string r);
  Alcotest.(check int) "min_int round-trips" min_int Z.(to_int (of_int min_int));
  Alcotest.(check int) "max_int round-trips" max_int Z.(to_int (of_int max_int));
  Alcotest.(check bool) "2^62 does not fit" true
    (Z.to_int_opt (Z.pow Z.two 62) = None)

let z_pow_negative () =
  Alcotest.check_raises "negative exponent" (Invalid_argument "Z.pow: negative exponent")
    (fun () -> ignore (Z.pow Z.two (-1)))

let q_gen =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-500) 500) (QCheck.int_range (-60) 60))

let q_field_laws =
  QCheck.Test.make ~count:500 ~name:"Q ring laws and normalisation"
    (QCheck.triple q_gen q_gen q_gen)
    (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.sub a a) Q.zero
      && (Q.is_zero a || Q.equal (Q.div a a) Q.one)
      && Ld_arith.Z.sign (Q.den a) > 0
      && Ld_arith.Z.equal (Ld_arith.Z.gcd (Q.num a) (Q.den a))
           (if Q.is_zero a then Ld_arith.Z.one else Ld_arith.Z.one))

let q_order_consistent =
  QCheck.Test.make ~count:500 ~name:"Q compare agrees with float compare"
    (QCheck.pair q_gen q_gen)
    (fun (a, b) ->
      let fa = Q.to_float a and fb = Q.to_float b in
      if Float.abs (fa -. fb) > 1e-9 then
        (Q.compare a b > 0) = (fa > fb)
      else true)

let q_parsing () =
  Alcotest.(check string) "1/3 + 1/6" "1/2" Q.(to_string (add (of_ints 1 3) (of_ints 1 6)));
  Alcotest.(check bool) "of_string p/q" true Q.(equal (of_string "-3/9") (of_ints (-1) 3));
  Alcotest.(check bool) "of_string int" true Q.(equal (of_string "7") (of_int 7));
  Alcotest.(check bool) "half" true Q.(equal half (of_ints 2 4));
  Alcotest.(check bool) "is_integer" true Q.(is_integer (of_ints 8 4));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Q.of_ints 1 0))

let q_infix_operators () =
  let open Q.Infix in
  Alcotest.(check bool) "arith" true
    (Q.of_ints 1 2 + Q.of_ints 1 3 = Q.of_ints 5 6);
  Alcotest.(check bool) "comparison chain" true
    (Q.of_ints 1 3 < Q.half && Q.half <= Q.half && Q.one > Q.half
    && Q.of_ints 7 7 >= Q.one);
  Alcotest.(check bool) "mul div" true
    (Q.of_ints 2 3 * Q.of_ints 3 4 / Q.half = Q.one)

let q_extremes () =
  (* exponentially small weights — the Åstrand–Suomela regime *)
  let tiny =
    List.fold_left (fun acc _ -> Q.mul acc Q.half) Q.one (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "2^-200 positive" true (Q.sign tiny > 0);
  let back =
    List.fold_left (fun acc _ -> Q.mul acc (Q.of_int 2)) tiny (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "scales back to 1" true (Q.equal back Q.one);
  Alcotest.(check string) "den digits" "61"
    (string_of_int (String.length (Ld_arith.Z.to_string (Q.den tiny))))

let q_sum_exact () =
  (* 1/1 + 1/2 + ... + 1/20 exactly *)
  let s = Q.sum (List.init 20 (fun i -> Q.of_ints 1 (i + 1))) in
  Alcotest.(check string) "harmonic H20" "55835135/15519504" (Q.to_string s)

(* ---- The small/big boundary of Q's representation ----------------- *)

(* Numerators and denominators straddling 2^30 (where Q switches from
   native ints to Z) and 2^62 (past a native product), plus small ones;
   big ones enter through [of_string]. *)
let boundary_digits =
  let around base = List.map (fun k -> Z.add base (Z.of_int k)) [ -2; -1; 0; 1; 2 ] in
  Array.of_list
    (List.concat
       [
         around (Z.pow Z.two 30);
         around (Z.pow Z.two 31);
         around (Z.pow Z.two 62);
         around (Z.pow Z.two 64);
         around (Z.mul (Z.pow Z.two 30) (Z.pow Z.two 30));
         List.map Z.of_int [ 1; 2; 3; 6; 7; 12; 1023; 32768; 1 lsl 29 ];
         [ Z.of_string "100000000000000000000000007" ];
       ])

let boundary_q =
  let part =
    QCheck.Gen.(
      map2
        (fun i k -> Z.add boundary_digits.(i) (Z.of_int k))
        (int_bound (Array.length boundary_digits - 1))
        (int_range (-3) 3))
  in
  let gen =
    QCheck.Gen.(
      map3
        (fun n d neg ->
          let n = if neg then Z.neg n else n in
          let d = if Z.sign d <= 0 then Z.one else d in
          Q.of_string (Z.to_string n ^ "/" ^ Z.to_string d))
        part
        (oneof [ part; return Z.one ])
        bool)
  in
  QCheck.make ~print:Q.to_string gen

let canonical q =
  Z.sign (Q.den q) > 0 && Z.equal (Z.gcd (Q.num q) (Q.den q)) Z.one

(* [q] is canonical, has the value [n/d], and equals the [Z]-built
   [make n d] field for field. *)
let is_value q (n, d) =
  canonical q
  && Z.equal (Z.mul (Q.num q) d) (Z.mul n (Q.den q))
  && Q.equal q (Q.make n d)

let q_boundary_matches_z =
  QCheck.Test.make ~count:1000 ~name:"Q at the S/B boundary = Z reference"
    (QCheck.pair boundary_q boundary_q)
    (fun (a, b) ->
      let an = Q.num a and ad = Q.den a and bn = Q.num b and bd = Q.den b in
      let cross = Z.compare (Z.mul an bd) (Z.mul bn ad) in
      let sgn x = Int.compare x 0 in
      canonical a && canonical b
      && is_value (Q.add a b) (Z.add (Z.mul an bd) (Z.mul bn ad), Z.mul ad bd)
      && is_value (Q.sub a b) (Z.sub (Z.mul an bd) (Z.mul bn ad), Z.mul ad bd)
      && is_value (Q.mul a b) (Z.mul an bn, Z.mul ad bd)
      && (Q.is_zero b || is_value (Q.div a b) (Z.mul an bd, Z.mul ad bn))
      && sgn (Q.compare a b) = sgn cross
      && Q.equal a b = (cross = 0)
      && Q.equal (Q.min a b) (if cross <= 0 then a else b)
      && Q.equal (Q.max a b) (if cross >= 0 then a else b)
      && is_value (Q.neg a) (Z.neg an, ad)
      && is_value (Q.abs a) (Z.abs an, ad)
      && (Q.is_zero a || is_value (Q.inv a) (ad, an))
      && Q.sign a = Z.sign an
      && Q.is_integer a = Z.equal ad Z.one
      && Q.hash a = (Z.hash an * 31) + Z.hash ad
      && Q.equal (Q.of_string (Q.to_string a)) a
      && String.equal (Q.to_string a)
           (if Z.equal ad Z.one then Z.to_string an
            else Z.to_string an ^ "/" ^ Z.to_string ad))

let q_boundary_literals () =
  let two30 = Z.pow Z.two 30 in
  let check_literal text ~num ~den =
    let q = Q.of_string text in
    Alcotest.(check string) (text ^ " prints back") text (Q.to_string q);
    Alcotest.(check bool) (text ^ " fields") true
      (Z.equal (Q.num q) num && Z.equal (Q.den q) den);
    Alcotest.(check bool) (text ^ " = make") true (Q.equal q (Q.make num den));
    Alcotest.(check int) (text ^ " hash") ((Z.hash num * 31) + Z.hash den) (Q.hash q)
  in
  check_literal "1073741823" ~num:(Z.sub two30 Z.one) ~den:Z.one;
  check_literal "1073741824" ~num:two30 ~den:Z.one;
  check_literal "1/1073741824" ~num:Z.one ~den:two30;
  let m = Q.of_string "-1073741823/1073741823" in
  Alcotest.(check string) "-1073741823/1073741823" "-1" (Q.to_string m);
  Alcotest.(check bool) "= of_int (-1)" true (Q.equal m (Q.of_int (-1)));
  (* Arithmetic that crosses the boundary in both directions lands on
     the same value as the literal. *)
  let max_small = Q.of_int 1073741823 in
  Alcotest.(check bool) "2^30 - 1 + 1" true
    (Q.equal (Q.add max_small Q.one) (Q.of_string "1073741824"));
  Alcotest.(check bool) "2^30 - 1" true
    (Q.equal (Q.sub (Q.of_string "1073741824") Q.one) max_small);
  Alcotest.(check bool) "2^30 * 2^-30" true
    (Q.equal (Q.mul (Q.of_string "1/1073741824") (Q.of_int 1073741824)) Q.one);
  Alcotest.(check bool) "of_ints 1 2^30" true
    (Q.equal (Q.of_ints 1 1073741824) (Q.of_string "1/1073741824"));
  Alcotest.(check bool) "2^30 > 2^30 - 1" true
    (Q.compare (Q.of_string "1073741824") max_small > 0);
  Alcotest.(check bool) "min_int" true
    (Z.equal (Q.num (Q.of_int min_int)) (Z.of_int min_int))

let () =
  Alcotest.run "arith"
    [
      ( "z",
        [
          QCheck_alcotest.to_alcotest z_matches_native;
          QCheck_alcotest.to_alcotest z_string_roundtrip;
          QCheck_alcotest.to_alcotest z_gcd_props;
          Alcotest.test_case "big values" `Quick z_big_values;
          Alcotest.test_case "pow negative" `Quick z_pow_negative;
        ] );
      ( "q",
        [
          QCheck_alcotest.to_alcotest q_field_laws;
          QCheck_alcotest.to_alcotest q_order_consistent;
          Alcotest.test_case "parsing and printing" `Quick q_parsing;
          Alcotest.test_case "exact harmonic sum" `Quick q_sum_exact;
          Alcotest.test_case "infix operators" `Quick q_infix_operators;
          Alcotest.test_case "exponentially small weights" `Quick q_extremes;
          QCheck_alcotest.to_alcotest q_boundary_matches_z;
          Alcotest.test_case "boundary literals" `Quick q_boundary_literals;
        ] );
    ]
