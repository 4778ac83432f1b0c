(* Sign-magnitude bignum over little-endian base-2^15 digits.
   Invariants: [mag] has no trailing zero digit; [sign = 0] iff [mag] is
   empty; every digit d satisfies [0 <= d < base].
   Base 2^15 keeps every intermediate of schoolbook multiplication and of
   Knuth's algorithm D inside 62 bits on a 64-bit [int]. *)

let base_bits = 15
let base = 1 lsl base_bits (* 32768 *)
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let check_invariant x =
  let n = Array.length x.mag in
  (if x.sign = 0 then n = 0 else n > 0 && x.mag.(n - 1) <> 0)
  && Array.for_all (fun d -> d >= 0 && d < base) x.mag

let trim mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = trim mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else if n = min_int then
    (* |min_int| = 2^62 has no positive [int] counterpart: 62 = 4*15 + 2. *)
    { sign = -1; mag = [| 0; 0; 0; 0; 4 |] }
  else begin
    let sign = if n > 0 then 1 else -1 in
    let m = if n > 0 then n else -n in
    let rec build acc n =
      if n = 0 then List.rev acc else build ((n land base_mask) :: acc) (n lsr base_bits)
    in
    { sign; mag = Array.of_list (build [] m) }
  end

let sign x = x.sign
let is_zero x = x.sign = 0

(* Magnitude comparison: -1 / 0 / 1. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  r

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    match cmp_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> make x.sign (sub_mag x.mag y.mag)
    | _ -> make y.sign (sub_mag y.mag x.mag)
  end

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let sub x y = add x (neg y)
let abs x = if x.sign < 0 then neg x else x

(* Schoolbook multiplication of magnitudes. *)
let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land base_mask;
        carry := cur lsr base_bits
      done;
      (* propagate the final carry (it can span several digits only if the
         slot already held data, which it cannot here beyond one digit) *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land base_mask;
        carry := cur lsr base_bits;
        incr k
      done
    done;
    r
  end

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else make (x.sign * y.sign) (mul_mag x.mag y.mag)

(* Divide magnitude [a] by a single digit [d]; returns (quotient, remainder). *)
let divmod_mag_digit a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes. Requires |a| >= |b|, length b >= 2.
   Returns (quotient, remainder) magnitudes. *)
let divmod_mag_long a b =
  let n = Array.length b in
  let m = Array.length a - n in
  (* Normalise so that the top digit of b is >= base/2. *)
  let shift =
    let rec go s top = if top >= base / 2 then s else go (s + 1) (top lsl 1) in
    go 0 b.(n - 1)
  in
  let shl mag extra_slot =
    (* left-shift whole magnitude by [shift] bits, with optional extra top slot *)
    let l = Array.length mag in
    let r = Array.make (l + extra_slot) 0 in
    let carry = ref 0 in
    for i = 0 to l - 1 do
      let cur = (mag.(i) lsl shift) lor !carry in
      r.(i) <- cur land base_mask;
      carry := cur lsr base_bits
    done;
    if extra_slot > 0 then r.(l) <- !carry else assert (!carry = 0);
    r
  in
  let u = shl a 1 in
  let v = shl b 0 in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* Estimate q̂ from the top two digits of the current remainder window. *)
    let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top / v.(n - 1)) in
    let rhat = ref (top mod v.(n - 1)) in
    if !qhat >= base then begin qhat := base - 1; rhat := top - !qhat * v.(n - 1) end;
    let continue = ref true in
    while !continue && !rhat < base do
      if n >= 2 && !qhat * v.(n - 2) > (!rhat lsl base_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + v.(n - 1)
      end
      else continue := false
    done;
    (* Multiply-subtract u[j .. j+n] -= q̂ * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) + !carry in
      carry := p lsr base_bits;
      let s = u.(i + j) - (p land base_mask) - !borrow in
      if s < 0 then begin u.(i + j) <- s + base; borrow := 1 end
      else begin u.(i + j) <- s; borrow := 0 end
    done;
    let s = u.(j + n) - !carry - !borrow in
    if s < 0 then begin
      (* q̂ was one too large: add back. *)
      u.(j + n) <- s + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- t land base_mask;
        carry2 := t lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land base_mask
    end
    else u.(j + n) <- s;
    q.(j) <- !qhat
  done;
  (* Denormalise the remainder. *)
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!carry lsl base_bits) lor u.(i) in
    r.(i) <- cur lsr shift;
    carry := cur land ((1 lsl shift) - 1)
  done;
  (q, r)

let divmod x y =
  if y.sign = 0 then raise Division_by_zero
  else if x.sign = 0 then (zero, zero)
  else begin
    let c = cmp_mag x.mag y.mag in
    if c < 0 then (zero, x)
    else if c = 0 then (make (x.sign * y.sign) [| 1 |], zero)
    else begin
      let qmag, rmag =
        if Array.length y.mag = 1 then begin
          let q, r = divmod_mag_digit x.mag y.mag.(0) in
          (q, if r = 0 then [||] else [| r |])
        end
        else divmod_mag_long x.mag y.mag
      in
      (make (x.sign * y.sign) qmag, make x.sign rmag)
    end
  end

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)
let gcd x y = gcd_aux (abs x) (abs y)

let compare x y =
  if x.sign <> y.sign then Stdlib.compare x.sign y.sign
  else if x.sign >= 0 then cmp_mag x.mag y.mag
  else cmp_mag y.mag x.mag

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1

let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

let to_int_opt x =
  (* Accumulate negatively so that [min_int] (which has no positive
     counterpart) still round-trips. *)
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if n > 5 then None
  else begin
    let rec value i acc =
      if i < 0 then
        if x.sign < 0 then Some acc
        else if acc = min_int then None
        else Some (-acc)
      else if acc < min_int / base then None
      else begin
        let shifted = acc * base in
        if shifted >= min_int + x.mag.(i) then value (i - 1) (shifted - x.mag.(i)) else None
      end
    in
    value (n - 1) 0
  end

let to_float x =
  let f = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  if x.sign < 0 then -. !f else !f

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec chunks acc mag =
      if Array.length (trim mag) = 0 then acc
      else begin
        let q, r = divmod_mag_digit mag 10000 in
        chunks (r :: acc) (trim q)
      end
    in
    match chunks [] x.mag with
    | [] -> "0"
    | first :: rest ->
      if x.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let l = String.length s in
  if l = 0 then invalid_arg "Bigint.of_string: empty";
  let sign_mult, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | '0' .. '9' -> (1, 0)
    | _ -> invalid_arg "Bigint.of_string: bad sign"
  in
  if start >= l then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to l - 1 do
    match s.[i] with
    | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code s.[i] - Char.code '0'))
    | _ -> invalid_arg "Bigint.of_string: bad digit"
  done;
  if sign_mult < 0 then neg !acc else !acc

let hash x = x.sign * (Array.fold_left (fun h d -> (h * 31 + d) land max_int) 17 x.mag)

let pp fmt x = Format.pp_print_string fmt (to_string x)

let () = assert (check_invariant zero)
