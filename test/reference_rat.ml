module B = Bigint

type t = { n : B.t; d : B.t }

let normalise n d =
  if B.is_zero d then raise Division_by_zero
  else if B.is_zero n then { n = B.zero; d = B.one }
  else begin
    let g = B.gcd n d in
    let n = B.div n g and d = B.div d g in
    if B.sign d < 0 then { n = B.neg n; d = B.neg d } else { n; d }
  end

let make n d = normalise n d
let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let minus_one = { n = B.minus_one; d = B.one }

let of_int i = { n = B.of_int i; d = B.one }
let of_ints n d = normalise (B.of_int n) (B.of_int d)
let of_bigint n = { n; d = B.one }
let num x = x.n
let den x = x.d

let add a b = normalise (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)
let sub a b = normalise (B.sub (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)
let mul a b = normalise (B.mul a.n b.n) (B.mul a.d b.d)
let div a b = normalise (B.mul a.n b.d) (B.mul a.d b.n)
let neg a = { a with n = B.neg a.n }
let abs a = { a with n = B.abs a.n }
let inv a = normalise a.d a.n

let compare a b = B.compare (B.mul a.n b.d) (B.mul b.n a.d)
let equal a b = B.equal a.n b.n && B.equal a.d b.d
let is_zero a = B.is_zero a.n
let sign a = B.sign a.n
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor a =
  let q, r = B.divmod a.n a.d in
  if B.sign r < 0 then B.sub q B.one else q

let ceil a =
  let q, r = B.divmod a.n a.d in
  if B.sign r > 0 then B.add q B.one else q

let is_integer a = B.is_one a.d

let to_float a = B.to_float a.n /. B.to_float a.d

let of_float_approx f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float_approx: not finite";
  let m, e = Float.frexp f in
  (* f = m * 2^e with 0.5 <= |m| < 1; m * 2^53 is integral for doubles. *)
  let mi = Int64.to_int (Int64.of_float (m *. 9007199254740992.0)) in
  let e = e - 53 in
  if e >= 0 then of_bigint (B.mul (B.of_int mi) (B.pow B.two e))
  else normalise (B.of_int mi) (B.pow B.two (-e))

let to_string a =
  if B.is_one a.d then B.to_string a.n
  else B.to_string a.n ^ "/" ^ B.to_string a.d

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
