(** Arbitrary-precision signed integers.

    A small, dependency-free bignum used as the substrate for exact
    rational edge weights ({!Q}). The magnitudes arising in this project
    are modest (hundreds of digits at most), so the implementation favours
    simplicity and obvious correctness over asymptotic speed: base-2^15
    limbs, schoolbook multiplication, long division by Knuth's
    Algorithm D, and the binary (Stein) GCD. {!Q} keeps values below
    2^30 in native ints and only reaches this module for larger ones. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts an OCaml native integer exactly. *)
val of_int : int -> t

(** [to_int t] converts back to a native integer.
    @raise Failure if the value does not fit. *)
val to_int : t -> int

(** [to_int_opt t] is [Some n] iff [t] fits in a native integer. *)
val to_int_opt : t -> int option

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward
    zero and [r] carrying the sign of [a] (OCaml [/] and [mod] semantics).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [pow base n] for [n >= 0]. @raise Invalid_argument on negative [n]. *)
val pow : t -> int -> t

val sign : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_zero : t -> bool
val hash : t -> int

(** Decimal conversion. [of_string] accepts an optional leading ['-'].
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t
val to_string : t -> string

val pp : Format.formatter -> t -> unit
