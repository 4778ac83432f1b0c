module B = Bigint

(* Canonical two-case representation. [S (n, d)] holds every value whose
   normalised numerator and denominator both fit a native [int] other than
   [min_int]; [L (n, d)] holds the rest, normalised the same way. Each value
   therefore has exactly one representation: [equal] compares fields, and
   an [S] never equals an [L].

   Arithmetic on [S] operands whose parts lie strictly inside ±2^30 runs in
   native ints: a product of two parts stays below 2^60 and a sum of two
   products below 2^61, inside the 63-bit [int]. Everything else goes
   through {!Bigint} exactly as a plain bignum rational would and is demoted
   back to [S] when the normalised result fits. *)
type t = S of int * int | L of B.t * B.t

let limit = 1 lsl 30
let small x = x < limit && x > -limit

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* [d > 0]; neither part is [min_int] and the value fits [S] once reduced. *)
let norm_int n d =
  if n = 0 then S (0, 1)
  else if d = 1 then S (n, 1)
  else begin
    let g = gcd_int (if n < 0 then -n else n) d in
    if g = 1 then S (n, d) else S (n / g, d / g)
  end

(* [n / d] already normalised in bignums: demote when both parts fit. *)
let demote n d =
  match (B.to_int_opt n, B.to_int_opt d) with
  | Some ni, Some di when ni <> min_int -> S (ni, di)
  | _ -> L (n, d)

let normalise n d =
  if B.is_zero d then raise Division_by_zero
  else if B.is_zero n then S (0, 1)
  else begin
    let g = B.gcd n d in
    let n = B.div n g and d = B.div d g in
    if B.sign d < 0 then demote (B.neg n) (B.neg d) else demote n d
  end

let num = function S (n, _) -> B.of_int n | L (n, _) -> n
let den = function S (_, d) -> B.of_int d | L (_, d) -> d

let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)

let of_int i = if i = min_int then L (B.of_int i, B.one) else S (i, 1)

let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = min_int || d = min_int then normalise (B.of_int n) (B.of_int d)
  else if d < 0 then norm_int (-n) (-d)
  else norm_int n d

let make n d = normalise n d

let of_bigint n = demote n B.one

let add a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) when small n1 && small n2 -> S (n1 + n2, 1)
  | S (n1, d1), S (n2, d2) when small n1 && small d1 && small n2 && small d2 ->
    norm_int ((n1 * d2) + (n2 * d1)) (d1 * d2)
  | _ ->
    normalise
      (B.add (B.mul (num a) (den b)) (B.mul (num b) (den a)))
      (B.mul (den a) (den b))

let sub a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) when small n1 && small n2 -> S (n1 - n2, 1)
  | S (n1, d1), S (n2, d2) when small n1 && small d1 && small n2 && small d2 ->
    norm_int ((n1 * d2) - (n2 * d1)) (d1 * d2)
  | _ ->
    normalise
      (B.sub (B.mul (num a) (den b)) (B.mul (num b) (den a)))
      (B.mul (den a) (den b))

let mul a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) when small n1 && small n2 -> S (n1 * n2, 1)
  | S (n1, d1), S (n2, d2) when small n1 && small d1 && small n2 && small d2 ->
    norm_int (n1 * n2) (d1 * d2)
  | _ -> normalise (B.mul (num a) (num b)) (B.mul (den a) (den b))

let div a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) when small n1 && small d1 && small n2 && small d2 ->
    if n2 = 0 then raise Division_by_zero
    else if n2 < 0 then norm_int (-(n1 * d2)) (-(d1 * n2))
    else norm_int (n1 * d2) (d1 * n2)
  | _ -> normalise (B.mul (num a) (den b)) (B.mul (den a) (num b))

(* No [S] part is [min_int], so negation stays in range; an [L] value
   negated stays outside it. *)
let neg = function S (n, d) -> S (-n, d) | L (n, d) -> L (B.neg n, d)
let abs = function S (n, d) -> S (Stdlib.abs n, d) | L (n, d) -> L (B.abs n, d)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | L (n, d) -> normalise d n

let compare a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) -> Int.compare n1 n2
  | S (n1, d1), S (n2, d2) when small n1 && small d1 && small n2 && small d2 ->
    Int.compare (n1 * d2) (n2 * d1)
  | _ -> B.compare (B.mul (num a) (den b)) (B.mul (num b) (den a))

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | L (n1, d1), L (n2, d2) -> B.equal n1 n2 && B.equal d1 d2
  | S _, L _ | L _, S _ -> false

let is_zero = function S (n, _) -> n = 0 | L _ -> false
let sign = function S (n, _) -> Int.compare n 0 | L (n, _) -> B.sign n
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Truncated [n / d] and [n mod d] with the dividend's sign, as
   {!Bigint.divmod}. *)
let floor = function
  | S (n, d) -> B.of_int (if n mod d < 0 then (n / d) - 1 else n / d)
  | L (n, d) ->
    let q, r = B.divmod n d in
    if B.sign r < 0 then B.sub q B.one else q

let ceil = function
  | S (n, d) -> B.of_int (if n mod d > 0 then (n / d) + 1 else n / d)
  | L (n, d) ->
    let q, r = B.divmod n d in
    if B.sign r > 0 then B.add q B.one else q

let is_integer = function S (_, d) -> d = 1 | L (_, d) -> B.is_one d

(* Below 2^53 both [float_of_int] and {!Bigint.to_float} are exact, so the
   quotient is the same double either way. *)
let exact_float = 1 lsl 53

let to_float = function
  | S (n, d) when n < exact_float && n > -exact_float && d < exact_float ->
    float_of_int n /. float_of_int d
  | a -> B.to_float (num a) /. B.to_float (den a)

let of_float_approx f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float_approx: not finite";
  if Float.is_integer f && Float.abs f < 0x1p62 then S (int_of_float f, 1)
  else begin
    let m, e = Float.frexp f in
    (* f = m * 2^e with 0.5 <= |m| < 1; m * 2^53 is integral for doubles. *)
    let mi = Int64.to_int (Int64.of_float (m *. 9007199254740992.0)) in
    let e = e - 53 in
    if e >= 0 then of_bigint (B.mul (B.of_int mi) (B.pow B.two e))
    else if e > -62 then norm_int mi (1 lsl (-e))
    else normalise (B.of_int mi) (B.pow B.two (-e))
  end

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | L (n, d) ->
    if B.is_one d then B.to_string n else B.to_string n ^ "/" ^ B.to_string d

let pp fmt a = Format.pp_print_string fmt (to_string a)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
let ( = ) = equal
