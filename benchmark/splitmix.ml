(* splitmix64: the serve-verify request stream is a pure function of
   --seed, independent of the program under test. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1) from the top 53 bits. *)
let uniform t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

(* Uniform in [0, bound). *)
let below t bound = Stdlib.min (bound - 1) (int_of_float (uniform t *. float_of_int bound))

(* A value of [lo .. hi] drawn with weight 1/(v - lo + 1). *)
let harmonic ~lo ~hi =
  let n = hi - lo + 1 in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cum.(i) <- !total
  done;
  fun t ->
    let u = uniform t *. !total in
    let rec find i = if i >= n - 1 || cum.(i) >= u then lo + i else find (i + 1) in
    find 0
