(** Sparse linear expressions [sum_i c_i * x_i + k] over integer variable ids
    with exact rational coefficients. The building block of {!Model}. *)

type t

val zero : t
val constant : Numeric.Rat.t -> t
val of_int : int -> t
val var : int -> t
(** [var v] is the expression [1 * x_v]. *)

val term : Numeric.Rat.t -> int -> t
(** [term c v] is [c * x_v]. *)

val iterm : int -> int -> t
(** [iterm c v] is [c * x_v] with an integer coefficient. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Numeric.Rat.t -> t -> t
val scale_int : int -> t -> t
val neg : t -> t
val add_term : t -> Numeric.Rat.t -> int -> t
val add_constant : t -> Numeric.Rat.t -> t

val sum : t list -> t

val coeff : t -> int -> Numeric.Rat.t
val const_part : t -> Numeric.Rat.t
val terms : t -> (int * Numeric.Rat.t) list
(** Non-zero terms in ascending variable order. *)

val fold : (int -> Numeric.Rat.t -> 'a -> 'a) -> t -> 'a -> 'a
val is_constant : t -> bool
val eval : (int -> Numeric.Rat.t) -> t -> Numeric.Rat.t
val eval_float : (int -> float) -> t -> float
val max_var : t -> int
(** Largest variable id mentioned, or [-1]. *)

val pp : (int -> string) -> Format.formatter -> t -> unit
