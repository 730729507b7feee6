(* Little-endian magnitude in base 2^15; [sign] is -1, 0 or +1 and is 0
   exactly when the magnitude is empty.  Base 2^15 keeps every digit
   product comfortably inside a native int. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int n =
  if n = 0 then zero
  else begin
    (* Work with the negative absolute value so that [min_int] needs no
       special case; OCaml's [mod] then yields remainders in (-base, 0]. *)
    let sign = if n > 0 then 1 else -1 in
    let rec digits acc m =
      if m = 0 then List.rev acc
      else digits (-(m mod base) :: acc) (m / base)
    in
    let m = if n > 0 then -n else n in
    normalize sign (Array.of_list (digits [] m))
  end

let one = of_int 1
let two = of_int 2

let is_zero t = t.sign = 0
let sign t = t.sign

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* Requires a >= b digit-wise value. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.mag.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize (a.sign * b.sign) r
  end

let shift_left_bits t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let word = k / base_bits and bit = k mod base_bits in
    let la = Array.length t.mag in
    let r = Array.make (la + word + 1) 0 in
    for i = 0 to la - 1 do
      let v = t.mag.(i) lsl bit in
      r.(i + word) <- r.(i + word) lor (v land base_mask);
      r.(i + word + 1) <- r.(i + word + 1) lor (v lsr base_bits)
    done;
    normalize t.sign r
  end

let shift_right_bits t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let word = k / base_bits and bit = k mod base_bits in
    let la = Array.length t.mag in
    if word >= la then zero
    else begin
      let lr = la - word in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = t.mag.(i + word) lsr bit in
        let hi =
          if i + word + 1 < la then t.mag.(i + word + 1) lsl (base_bits - bit)
          else 0
        in
        r.(i) <- (lo lor hi) land base_mask
      done;
      normalize t.sign r
    end
  end

let num_bits t =
  if t.sign = 0 then 0
  else begin
    let top = t.mag.(Array.length t.mag - 1) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    ((Array.length t.mag - 1) * base_bits) + bits top 0
  end

(* Short division: divisor fits one limb. *)
let divmod_mag_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize 1 q, of_int !r)

(* Magnitude long division, Knuth TAOCP vol. 2 Algorithm D: limb-at-a-
   time with a two-limb trial quotient against a divisor normalised so
   its top limb is >= base/2. All intermediates fit a native int (limb
   products are < 2^30). Replaces the historic bit-by-bit
   shift-and-subtract loop, which allocated two bignums per dividend
   bit and made every [gcd] (hence every canonicalising [Q] operation)
   quadratic in the operand's bit length with a brutal constant. *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 1 then divmod_mag_small a b.(0)
  else if compare_mag a b < 0 then (zero, normalize 1 (Array.copy a))
  else begin
    let la = Array.length a in
    (* Normalise: shift so the divisor's top limb has its high bit set. *)
    let rec count_shift v acc =
      if v land (base lsr 1) <> 0 then acc else count_shift (v lsl 1) (acc + 1)
    in
    let shift = count_shift b.(lb - 1) 0 in
    let u = Array.make (la + 1) 0 in
    for i = 0 to la - 1 do
      let x = a.(i) lsl shift in
      u.(i) <- u.(i) lor (x land base_mask);
      u.(i + 1) <- x lsr base_bits
    done;
    let v = Array.make lb 0 in
    for i = 0 to lb - 1 do
      let x = b.(i) lsl shift in
      v.(i) <- v.(i) lor (x land base_mask);
      if i + 1 < lb then v.(i + 1) <- x lsr base_bits
    done;
    let v1 = v.(lb - 1) and v2 = v.(lb - 2) in
    let q = Array.make (la - lb + 1) 0 in
    for j = la - lb downto 0 do
      (* Trial quotient from the top two dividend limbs. *)
      let top = (u.(j + lb) lsl base_bits) lor u.(j + lb - 1) in
      let qhat = ref (Stdlib.min (top / v1) base_mask) in
      let rhat = ref (top - (!qhat * v1)) in
      while
        !rhat < base && !qhat * v2 > (!rhat lsl base_bits) lor u.(j + lb - 2)
      do
        decr qhat;
        rhat := !rhat + v1
      done;
      (* Multiply-subtract v * qhat from u[j .. j+lb]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to lb - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let s = u.(i + j) - (p land base_mask) - !borrow in
        if s < 0 then begin
          u.(i + j) <- s + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- s;
          borrow := 0
        end
      done;
      let s = u.(j + lb) - !carry - !borrow in
      if s < 0 then begin
        (* Trial quotient one too large: add the divisor back. *)
        u.(j + lb) <- s + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to lb - 1 do
          let t = u.(i + j) + v.(i) + !c in
          u.(i + j) <- t land base_mask;
          c := t lsr base_bits
        done;
        u.(j + lb) <- (u.(j + lb) + !c) land base_mask
      end
      else u.(j + lb) <- s;
      q.(j) <- !qhat
    done;
    (* Denormalise the remainder (first lb limbs of u, shifted back). *)
    let r = Array.make lb 0 in
    for i = 0 to lb - 1 do
      let hi = if i + 1 < lb then u.(i + 1) else 0 in
      r.(i) <- ((u.(i) lsr shift) lor (hi lsl (base_bits - shift))) land base_mask
    done;
    (normalize 1 q, normalize 1 r)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    let q = if a.sign * b.sign > 0 then q else neg q in
    let r = if a.sign > 0 then r else neg r in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Binary (Stein) GCD: shifts and subtractions only. Division-free, so
   canonicalising a [Q] no longer pays a long division per Euclid step. *)
let gcd a b =
  let a = abs a and b = abs b in
  if is_zero a then b
  else if is_zero b then a
  else begin
    let trailing_zeros t =
      let i = ref 0 in
      while t.mag.(!i) = 0 do
        incr i
      done;
      let v = ref t.mag.(!i) and bits = ref 0 in
      while !v land 1 = 0 do
        v := !v lsr 1;
        incr bits
      done;
      (!i * base_bits) + !bits
    in
    let ka = trailing_zeros a and kb = trailing_zeros b in
    let a = ref (shift_right_bits a ka) and b = ref (shift_right_bits b kb) in
    (* Both odd; the invariant is restored after every step. *)
    let continue = ref true in
    while !continue do
      let c = compare_mag !a.mag !b.mag in
      if c = 0 then continue := false
      else begin
        if c < 0 then begin
          let t = !a in
          a := !b;
          b := t
        end;
        let d = normalize 1 (sub_mag !a.mag !b.mag) in
        a := !b;
        b := shift_right_bits d (trailing_zeros d)
      end
    done;
    shift_left_bits !a (Stdlib.min ka kb)
  end

let pow b n =
  if n < 0 then invalid_arg "Z.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one b n

let to_int_opt t =
  if t.sign = 0 then Some 0
  else begin
    let bits = num_bits t in
    if bits <= 62 then begin
      let v = ref 0 in
      for i = Array.length t.mag - 1 downto 0 do
        v := (!v lsl base_bits) lor t.mag.(i)
      done;
      Some (t.sign * !v)
    end
    else if bits = 63 && t.sign < 0 && equal t (of_int Stdlib.min_int) then
      Some Stdlib.min_int
    else None
  end

let to_int t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Z.to_int: does not fit in a native int"

let ten_thousand = of_int 10_000

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks acc v =
      if is_zero v then acc
      else begin
        let q, r = divmod v ten_thousand in
        chunks (to_int r :: acc) q
      end
    in
    match chunks [] (abs t) with
    | [] -> "0"
    | first :: rest ->
      if t.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Z.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Z.of_string: no digits";
  let v = ref zero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Z.of_string: invalid character";
    v := add (mul !v (of_int 10)) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !v else !v

let hash t =
  Array.fold_left (fun acc d -> (acc * 31) + d) (t.sign + 1) t.mag

let pp fmt t = Format.pp_print_string fmt (to_string t)
