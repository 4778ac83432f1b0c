(** Exact rational numbers over {!Bigint}.

    Values are kept normalised: the denominator is strictly positive and
    coprime with the numerator; zero is [0/1]. Total ordering is the usual
    order on ℚ.

    Representation: a normalised value is held as a pair of native [int]s
    when its numerator and denominator both fit an [int] other than
    [min_int], and as a pair of {!Bigint}s otherwise. The choice is
    canonical — it depends only on the value — so every value has exactly
    one representation. Operations on two native values whose parts lie
    strictly inside ±2^30 use native products (below 2^60, no overflow) and
    an [int] gcd; any other operand goes through {!Bigint}, and results
    that fit are demoted back to native ints. The representation is not
    observable: every function returns the same value, string and float,
    bit for bit, as a plain bignum rational would. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalises the fraction. @raise Division_by_zero if
    [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. @raise Division_by_zero if [den = 0]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on division by zero. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
(** Largest integer [<=] the value. *)

val ceil : t -> Bigint.t
(** Smallest integer [>=] the value. *)

val is_integer : t -> bool

val to_float : t -> float
(** [Bigint.to_float (num x) /. Bigint.to_float (den x)]. *)

val of_float_approx : float -> t
(** Dyadic approximation of a finite float (exact for IEEE doubles).
    @raise Invalid_argument on NaN or infinities. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
