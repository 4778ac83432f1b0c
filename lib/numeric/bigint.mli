(** Arbitrary-precision signed integers.

    Sign-magnitude representation over base-[2^15] digits. This module exists
    because the sealed build environment ships no [zarith]; the exact-rational
    simplex in {!module:Lp} needs unbounded integers to avoid pivot
    overflow. *)

type t

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val of_string : string -> t
(** Parses an optional sign followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and [r]
    carrying the sign of [a] (truncated division, like [Stdlib.( / )]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative; [gcd 0 0 = 0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val min : t -> t -> t
val max : t -> t -> t


val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

val to_float : t -> float
(** Best-effort conversion; may lose precision or overflow to infinity. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
