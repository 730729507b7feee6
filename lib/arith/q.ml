(* Invariant: the denominator is positive and coprime with the numerator;
   zero is 0/1. A value is [S] exactly when |num| < 2^30 and den < 2^30,
   and [B] otherwise, so every rational has one representation and
   [equal] can compare fields.

   The 2^30 bound is what makes the [S] path exact on native ints: a
   product of two small fields is below 2^60 and a sum of two such
   products below 2^61, inside OCaml's 63-bit ints, so [add], [mul],
   [div] and [compare] on two [S] values need no overflow checks. Their
   result is reduced with an int gcd and lands in [S] or [B] by the same
   rule. Any operation touching a [B] runs on [Z] and re-canonicalises. *)

type t = S of { n : int; d : int } | B of { num : Z.t; den : Z.t }

let limit = 1 lsl 30
let small n = n > -limit && n < limit

let zero = S { n = 0; d = 1 }
let one = S { n = 1; d = 1 }
let half = S { n = 1; d = 2 }

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* [n/d] already reduced, [d > 0]. *)
let of_reduced_ints n d =
  if small n && d < limit then S { n; d }
  else B { num = Z.of_int n; den = Z.of_int d }

(* [n/d] with [d > 0] and both below 2^62 in magnitude. *)
let reduce_ints n d =
  if n = 0 then zero
  else begin
    let g = gcd_int (Stdlib.abs n) d in
    of_reduced_ints (n / g) (d / g)
  end

(* [num/den] already canonical. *)
let of_reduced_z num den =
  match (Z.to_int_opt num, Z.to_int_opt den) with
  | Some n, Some d when small n && d < limit -> S { n; d }
  | _ -> B { num; den }

let num = function S { n; _ } -> Z.of_int n | B { num; _ } -> num
let den = function S { d; _ } -> Z.of_int d | B { den; _ } -> den

let make num den =
  if Z.is_zero den then raise Division_by_zero
  else if Z.is_zero num then zero
  else begin
    let num, den = if Z.sign den < 0 then (Z.neg num, Z.neg den) else (num, den) in
    let g = Z.gcd num den in
    of_reduced_z (Z.div num g) (Z.div den g)
  end

let of_ints n d =
  if small n && small d then begin
    if d = 0 then raise Division_by_zero
    else if d < 0 then reduce_ints (-n) (-d)
    else reduce_ints n d
  end
  else make (Z.of_int n) (Z.of_int d)

let of_int n = if small n then S { n; d = 1 } else B { num = Z.of_int n; den = Z.one }

(* |num| and den swap or keep their bounds, so these stay canonical. *)
let neg = function
  | S { n; d } -> S { n = -n; d }
  | B { num; den } -> B { num = Z.neg num; den }

let abs = function
  | S { n; d } -> S { n = Stdlib.abs n; d }
  | B { num; den } -> B { num = Z.abs num; den }

let is_zero = function S { n; _ } -> n = 0 | B _ -> false

(* The [Z] paths use the classical cross-reduced (Henrici) formulas:
   with canonical inputs the gcds run on the small cofactors instead of
   the full-size products, and the results are canonical by
   construction. *)
let add_z an ad bn bd =
  let g1 = Z.gcd ad bd in
  if Z.equal g1 Z.one then
    of_reduced_z (Z.add (Z.mul an bd) (Z.mul bn ad)) (Z.mul ad bd)
  else begin
    let d1 = Z.div ad g1 and d2 = Z.div bd g1 in
    let t = Z.add (Z.mul an d2) (Z.mul bn d1) in
    if Z.is_zero t then zero
    else begin
      let g2 = Z.gcd t g1 in
      of_reduced_z (Z.div t g2) (Z.mul d1 (Z.div bd g2))
    end
  end

let add a b =
  match (a, b) with
  | S { n = 0; _ }, _ -> b
  | _, S { n = 0; _ } -> a
  | S a, S b ->
    if a.d = 1 && b.d = 1 then of_reduced_ints (a.n + b.n) 1
    else reduce_ints ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
  | _ ->
    if is_zero a then b
    else if is_zero b then a
    else add_z (num a) (den a) (num b) (den b)

let sub a b =
  match (a, b) with
  | S a, S b -> reduce_ints ((a.n * b.d) - (b.n * a.d)) (a.d * b.d)
  | _ -> add a (neg b)

let mul_z an ad bn bd =
  let g1 = Z.gcd an bd and g2 = Z.gcd bn ad in
  of_reduced_z
    (Z.mul (Z.div an g1) (Z.div bn g2))
    (Z.mul (Z.div ad g2) (Z.div bd g1))

let mul a b =
  match (a, b) with
  | S a, S b -> reduce_ints (a.n * b.n) (a.d * b.d)
  | _ -> if is_zero a || is_zero b then zero else mul_z (num a) (den a) (num b) (den b)

let inv = function
  | S { n = 0; _ } -> raise Division_by_zero
  | S { n; d } -> if n < 0 then S { n = -d; d = -n } else S { n = d; d = n }
  | B { num; den } ->
    if Z.sign num < 0 then B { num = Z.neg den; den = Z.neg num }
    else B { num = den; den = num }

let div a b =
  match (a, b) with
  | S _, S { n = 0; _ } -> raise Division_by_zero
  | S a, S b ->
    if b.n < 0 then reduce_ints (-(a.n * b.d)) (-(a.d * b.n))
    else reduce_ints (a.n * b.d) (a.d * b.n)
  | _ -> mul a (inv b)

let compare a b =
  match (a, b) with
  | S a, S b -> Int.compare (a.n * b.d) (b.n * a.d)
  | _ -> Z.compare (Z.mul (num a) (den b)) (Z.mul (num b) (den a))

let equal a b =
  match (a, b) with
  | S a, S b -> a.n = b.n && a.d = b.d
  | B a, B b -> Z.equal a.num b.num && Z.equal a.den b.den
  | _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let sign = function S { n; _ } -> Int.compare n 0 | B { num; _ } -> Z.sign num
let is_integer = function S { d; _ } -> d = 1 | B { den; _ } -> Z.equal den Z.one

let sum qs = List.fold_left add zero qs

let to_string = function
  | S { n; d } -> if d = 1 then string_of_int n else string_of_int n ^ "/" ^ string_of_int d
  | B { num; den } ->
    if Z.equal den Z.one then Z.to_string num
    else Z.to_string num ^ "/" ^ Z.to_string den

let of_string s =
  match String.index_opt s '/' with
  | None -> of_reduced_z (Z.of_string s) Z.one
  | Some i ->
    make
      (Z.of_string (String.sub s 0 i))
      (Z.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let to_float = function
  | S { n; d } -> float_of_int n /. float_of_int d
  | B { num; den } -> (
    (* Exact for values that fit an int; larger ones go through digits. *)
    match (Z.to_int_opt num, Z.to_int_opt den) with
    | Some n, Some d -> float_of_int n /. float_of_int d
    | _ -> float_of_string (Z.to_string num) /. float_of_string (Z.to_string den))

let hash t = (Z.hash (num t) * 31) + Z.hash (den t)

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
