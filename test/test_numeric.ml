(* Unit and property tests for the arbitrary-precision substrate. *)

module B = Numeric.Bigint
module Q = Numeric.Rat

let check = Alcotest.check
let str = Alcotest.string
let bool = Alcotest.bool
let int_t = Alcotest.int

let bs x = B.to_string x
let qs x = Q.to_string x

(* ---------- Bigint units ---------- *)

let test_of_int_roundtrip () =
  let cases = [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; max_int; min_int ] in
  List.iter
    (fun n ->
      check (Alcotest.option int_t) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    cases

let test_to_string_basic () =
  check str "zero" "0" (bs B.zero);
  check str "one" "1" (bs B.one);
  check str "neg" "-12345" (bs (B.of_int (-12345)));
  check str "big" "123456789012345678901234567890"
    (bs (B.of_string "123456789012345678901234567890"))

let test_of_string_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "letters" (Invalid_argument "Bigint.of_string: bad digit")
    (fun () -> ignore (B.of_string "12a"));
  Alcotest.check_raises "bare sign" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "-"))

let test_add_sub () =
  let a = B.of_string "99999999999999999999" in
  check str "a+1" "100000000000000000000" (bs (B.add a B.one));
  check str "a-a" "0" (bs (B.sub a a));
  check str "0-a" ("-" ^ bs a) (bs (B.sub B.zero a));
  check str "neg cancel" "0" (bs (B.add a (B.neg a)))

let test_mul () =
  let a = B.of_string "123456789" in
  let b = B.of_string "987654321" in
  check str "123456789*987654321" "121932631112635269" (bs (B.mul a b));
  check str "sign" "-121932631112635269" (bs (B.mul (B.neg a) b));
  check str "by zero" "0" (bs (B.mul a B.zero))

let test_divmod () =
  let a = B.of_string "1000000000000000000000" in
  let b = B.of_string "7777777" in
  let q, r = B.divmod a b in
  check str "reconstruct" (bs a) (bs (B.add (B.mul q b) r));
  check bool "remainder range" true (B.compare (B.abs r) (B.abs b) < 0);
  (* truncated semantics like Stdlib: remainder has the dividend's sign *)
  let q', r' = B.divmod (B.neg a) b in
  check str "neg quotient" (bs (B.neg q)) (bs q');
  check str "neg remainder" (bs (B.neg r)) (bs r');
  check str "small / big" "0" (bs (B.div b a));
  check str "small rem big" (bs b) (bs (B.rem b a))

let test_div_by_zero () =
  Alcotest.check_raises "divmod 0" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  check str "gcd 462 1071" "21" (bs (B.gcd (B.of_int 462) (B.of_int 1071)));
  check str "gcd 0 5" "5" (bs (B.gcd B.zero (B.of_int 5)));
  check str "gcd 0 0" "0" (bs (B.gcd B.zero B.zero));
  check str "gcd negatives" "6" (bs (B.gcd (B.of_int (-12)) (B.of_int 18)))

let test_pow () =
  check str "2^100" "1267650600228229401496703205376" (bs (B.pow B.two 100));
  check str "x^0" "1" (bs (B.pow (B.of_int 123) 0));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_compare () =
  let a = B.of_string "100000000000000000000" in
  check bool "a > 1" true (B.compare a B.one > 0);
  check bool "-a < 1" true (B.compare (B.neg a) B.one < 0);
  check bool "-a < -1" true (B.compare (B.neg a) B.minus_one < 0);
  check bool "equal" true (B.equal a (B.of_string "100000000000000000000"));
  check str "min" (bs (B.neg a)) (bs (B.min (B.neg a) a));
  check str "max" (bs a) (bs (B.max (B.neg a) a))

let test_to_float () =
  check (Alcotest.float 1e-6) "2^20" 1048576.0 (B.to_float (B.pow B.two 20));
  check (Alcotest.float 1.0) "neg" (-12345.0) (B.to_float (B.of_int (-12345)))

let test_karatsuba_large () =
  (* operands of dozens of base-2^15 digits; division is an independent
     code path, so the round trip is a real cross-check of the
     multiplication *)
  let x = B.pow (B.of_string "123456789123456789") 13 in
  let y = B.pow (B.of_string "987654321987654321") 11 in
  let p = B.mul x y in
  let q, r = B.divmod p x in
  check bool "p / x = y" true (B.equal q y && B.is_zero r);
  let q2, r2 = B.divmod p y in
  check bool "p / y = x" true (B.equal q2 x && B.is_zero r2);
  (* power identity exercises repeated big multiplications *)
  let a = B.of_string "31415926535897932384626433" in
  check bool "x^7 * x^9 = x^16" true
    (B.equal (B.mul (B.pow a 7) (B.pow a 9)) (B.pow a 16));
  (* unbalanced operand sizes *)
  let small = B.of_int 65537 in
  let big = B.pow a 20 in
  let pr = B.mul big small in
  let qq, rr = B.divmod pr small in
  check bool "unbalanced sizes" true (B.equal qq big && B.is_zero rr)

let test_karatsuba_signs () =
  let a = B.pow (B.of_int 1234567) 40 in
  let b = B.pow (B.of_int 7654321) 40 in
  check bool "(-a)*b = -(a*b)" true (B.equal (B.mul (B.neg a) b) (B.neg (B.mul a b)));
  check bool "(-a)*(-b) = a*b" true (B.equal (B.mul (B.neg a) (B.neg b)) (B.mul a b))

(* ---------- Bigint properties ---------- *)

let prop_karatsuba_distributes =
  (* (x + y) * z = x*z + y*z on operands from one to dozens of digits *)
  QCheck.Test.make ~name:"large multiplication distributes" ~count:60
    QCheck.(triple (int_range 2 999999) (int_range 2 999999) (int_range 1 60))
    (fun (x, y, e) ->
      let bx = B.pow (B.of_int x) e in
      let by = B.pow (B.of_int y) e in
      let bz = B.pow (B.of_int (x + y)) (e / 2) in
      B.equal (B.mul (B.add bx by) bz) (B.add (B.mul bx bz) (B.mul by bz)))

let arb_int_pair = QCheck.(pair int int)

let prop_add_commutes =
  QCheck.Test.make ~name:"bigint add commutes" ~count:500 arb_int_pair (fun (x, y) ->
      B.equal (B.add (B.of_int x) (B.of_int y)) (B.add (B.of_int y) (B.of_int x)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int on small values" ~count:500
    QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (x, y) -> B.to_int_opt (B.add (B.of_int x) (B.of_int y)) = Some (x + y))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int on small values" ~count:500
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (x, y) -> B.to_int_opt (B.mul (B.of_int x) (B.of_int y)) = Some (x * y))

let prop_divmod_reconstructs =
  QCheck.Test.make ~name:"bigint a = q*b + r with |r| < |b|" ~count:1000
    QCheck.(pair int int)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let a = B.mul (B.of_int x) (B.of_int x) (* widen beyond int *) in
      let b = B.of_int y in
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:500 QCheck.int (fun x ->
      let a = B.mul (B.of_int x) (B.of_int 1234567) in
      B.equal a (B.of_string (B.to_string a)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:500 arb_int_pair (fun (x, y) ->
      QCheck.assume (x <> 0 || y <> 0);
      let g = B.gcd (B.of_int x) (B.of_int y) in
      B.is_zero (B.rem (B.of_int x) g) && B.is_zero (B.rem (B.of_int y) g))

(* ---------- Rat units ---------- *)

let test_rat_normalisation () =
  check str "2/4" "1/2" (qs (Q.of_ints 2 4));
  check str "-2/-4" "1/2" (qs (Q.of_ints (-2) (-4)));
  check str "2/-4" "-1/2" (qs (Q.of_ints 2 (-4)));
  check str "0/7" "0" (qs (Q.of_ints 0 7));
  check str "integer" "5" (qs (Q.of_ints 10 2))

let test_rat_arith () =
  check str "1/3 + 1/6" "1/2" (qs (Q.add (Q.of_ints 1 3) (Q.of_ints 1 6)));
  check str "1/2 * 2/3" "1/3" (qs (Q.mul (Q.of_ints 1 2) (Q.of_ints 2 3)));
  check str "(1/2) / (3/4)" "2/3" (qs (Q.div (Q.of_ints 1 2) (Q.of_ints 3 4)));
  check str "1 - 1/3" "2/3" (qs (Q.sub Q.one (Q.of_ints 1 3)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rat_floor_ceil () =
  check str "floor 7/2" "3" (bs (Q.floor (Q.of_ints 7 2)));
  check str "ceil 7/2" "4" (bs (Q.ceil (Q.of_ints 7 2)));
  check str "floor -7/2" "-4" (bs (Q.floor (Q.of_ints (-7) 2)));
  check str "ceil -7/2" "-3" (bs (Q.ceil (Q.of_ints (-7) 2)));
  check str "floor 3" "3" (bs (Q.floor (Q.of_int 3)));
  check str "ceil 3" "3" (bs (Q.ceil (Q.of_int 3)))

let test_rat_compare () =
  check bool "1/3 < 1/2" true (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2) < 0);
  check bool "-1/3 > -1/2" true (Q.compare (Q.of_ints (-1) 3) (Q.of_ints (-1) 2) > 0);
  check bool "equal" true (Q.equal (Q.of_ints 3 9) (Q.of_ints 1 3));
  check bool "is_integer" true (Q.is_integer (Q.of_ints 8 4));
  check bool "not integer" false (Q.is_integer (Q.of_ints 8 3))

let test_rat_of_float () =
  check str "0.5" "1/2" (qs (Q.of_float_approx 0.5));
  check str "0.25" "1/4" (qs (Q.of_float_approx 0.25));
  check bool "0.1 close" true
    (Q.to_float (Q.abs (Q.sub (Q.of_float_approx 0.1) (Q.of_ints 1 10))) < 1e-15);
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float_approx: not finite")
    (fun () -> ignore (Q.of_float_approx Float.nan))

(* ---------- Rat properties ---------- *)

let arb_rat =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    QCheck.(pair (int_range (-10000) 10000) (int_range (-100) 100))

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:300
    QCheck.(triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_rat_distributive =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:300
    QCheck.(triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_rat_inverse =
  QCheck.Test.make ~name:"rat x * 1/x = 1" ~count:300 arb_rat (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_rat_floor_bounds =
  QCheck.Test.make ~name:"rat floor(x) <= x < floor(x)+1" ~count:300 arb_rat (fun a ->
      let f = Q.of_bigint (Q.floor a) in
      Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0)

let prop_rat_total_order =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:300
    QCheck.(pair arb_rat arb_rat)
    (fun (a, b) -> compare (Q.compare a b) 0 = compare 0 (Q.compare b a))

(* ---------- Rat against the plain bignum oracle ---------- *)

(* [Reference_rat] is the bignum-only rational [Rat] used to be. Every
   operation of [Rat] must give the same value, the same string and the same
   float bits on operands drawn across each of its internal boundaries: the
   ±2^30 native-product guard, the 2^53 exact-float limit, [max_int],
   [min_int] and ±2^62, and bignum values well outside [int]. *)
module R = Reference_rat

let gen_edge_int =
  let open QCheck.Gen in
  frequency
    [
      (3, int_range (-1000) 1000);
      ( 8,
        map3
          (fun e k neg ->
            let v = (1 lsl e) + k in
            if neg then -v else v)
          (oneofl [ 15; 29; 30; 31; 32; 33; 52; 53; 54; 61 ])
          (int_range (-3) 3) bool );
      (1, map (fun k -> max_int - k) (int_range 0 3));
      (1, map (fun k -> min_int + k) (int_range 0 3));
    ]

let gen_edge_big =
  let open QCheck.Gen in
  let signed neg x = if neg then B.neg x else x in
  frequency
    [
      (8, map B.of_int gen_edge_int);
      (1, map (fun neg -> signed neg (B.pow B.two 62)) bool);
      ( 1,
        map3
          (fun b e neg -> signed neg (B.pow (B.of_int b) e))
          (oneofl [ 2; 3; 7; 10 ]) (int_range 16 80) bool );
    ]

(* The same fraction built by both implementations. *)
let gen_rat_pair =
  let open QCheck.Gen in
  map2
    (fun n d -> (Q.make n d, R.make n d))
    gen_edge_big
    (frequency
       [
         (3, return B.one);
         (6, map (fun d -> if B.is_zero d then B.two else d) gen_edge_big);
       ])

let arb_rat_pairs =
  QCheck.make
    ~print:(fun ((_, a), (_, b), (_, c)) ->
      Printf.sprintf "%s, %s, %s" (R.to_string a) (R.to_string b) (R.to_string c))
    QCheck.Gen.(triple gen_rat_pair gen_rat_pair gen_rat_pair)

(* Ok of the printed result, or the exception both sides must raise. *)
let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let float_bits f = Int64.bits_of_float f

let agree_unary what (q, r) =
  let same name fq fr =
    if outcome fq q <> outcome fr r then
      QCheck.Test.fail_reportf "%s: %s disagrees on %s" what name (R.to_string r)
  in
  same "to_string" Q.to_string R.to_string;
  same "num/den"
    (fun q -> bs (Q.num q) ^ "/" ^ bs (Q.den q))
    (fun r -> bs (R.num r) ^ "/" ^ bs (R.den r));
  same "floor" (fun q -> bs (Q.floor q)) (fun r -> bs (R.floor r));
  same "ceil" (fun q -> bs (Q.ceil q)) (fun r -> bs (R.ceil r));
  same "is_integer" (fun q -> string_of_bool (Q.is_integer q))
    (fun r -> string_of_bool (R.is_integer r));
  same "sign" (fun q -> string_of_int (Q.sign q)) (fun r -> string_of_int (R.sign r));
  same "to_float" (fun q -> float_bits (Q.to_float q) |> Int64.to_string)
    (fun r -> float_bits (R.to_float r) |> Int64.to_string);
  same "neg" (fun q -> qs (Q.neg q)) (fun r -> R.to_string (R.neg r));
  same "abs" (fun q -> qs (Q.abs q)) (fun r -> R.to_string (R.abs r));
  same "inv" (fun q -> qs (Q.inv q)) (fun r -> R.to_string (R.inv r));
  let f = R.to_float r in
  if Float.is_finite f then
    same "of_float_approx"
      (fun _ -> qs (Q.of_float_approx f))
      (fun _ -> R.to_string (R.of_float_approx f))

let binary_ops =
  [
    ("add", Q.add, R.add);
    ("sub", Q.sub, R.sub);
    ("mul", Q.mul, R.mul);
    ("div", Q.div, R.div);
  ]

(* Applies [op] on both sides; the pair of results when both succeed. *)
let agree_binary (name, fq, fr) (qa, ra) (qb, rb) =
  match (outcome (fq qa) qb, outcome (fr ra) rb) with
  | Ok q, Ok r ->
    if Q.to_string q <> R.to_string r then
      QCheck.Test.fail_reportf "%s %s %s: %s vs %s" name (R.to_string ra)
        (R.to_string rb) (Q.to_string q) (R.to_string r);
    Some (q, r)
  | Error e, Error e' when e = e' -> None
  | _ ->
    QCheck.Test.fail_reportf "%s %s %s: outcomes differ" name (R.to_string ra)
      (R.to_string rb)

let agree_order (qa, ra) (qb, rb) =
  if Q.compare qa qb <> R.compare ra rb || Q.equal qa qb <> R.equal ra rb then
    QCheck.Test.fail_reportf "compare/equal %s %s" (R.to_string ra) (R.to_string rb)

let prop_rat_matches_oracle =
  QCheck.Test.make ~name:"rat agrees with the bignum oracle" ~count:1500 arb_rat_pairs
    (fun (a, b, c) ->
      List.iter (agree_unary "operand") [ a; b; c ];
      agree_order a b;
      agree_order b a;
      (* Every result feeds a second operation, so results that left (or
         re-entered) the native range are operands too. *)
      List.iter
        (fun op ->
          match agree_binary op a b with
          | None -> ()
          | Some x ->
            agree_unary "result" x;
            agree_order x c;
            List.iter (fun op' -> ignore (agree_binary op' x c)) binary_ops)
        binary_ops;
      true)

let gen_edge_float =
  let open QCheck.Gen in
  frequency
    [
      (3, map Float.of_int gen_edge_int);
      ( 3,
        map2
          (fun e k -> Float.ldexp 1.0 e +. Float.of_int k)
          (oneofl [ 30; 52; 53; 54; 61; 62; 63; 64 ]) (int_range (-2) 2) );
      (3, map2 Float.ldexp (float_range (-1.0) 1.0) (int_range (-1074) 1023));
      (1, float);
    ]

let prop_rat_of_float_matches_oracle =
  QCheck.Test.make ~name:"rat of_float_approx agrees with the bignum oracle" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_edge_float)
    (fun f ->
      let q = outcome Q.of_float_approx f and r = outcome R.of_float_approx f in
      (match (q, r) with
       | Ok q, Ok r -> Q.to_string q = R.to_string r && Q.is_integer q = R.is_integer r
       | Error e, Error e' -> e = e'
       | _ -> false)
      && (match (q, r) with
          | Ok q, Ok r -> float_bits (Q.to_float q) = float_bits (R.to_float r)
          | _ -> true))

let prop_rat_of_ints_matches_oracle =
  QCheck.Test.make ~name:"rat of_int/of_ints agree with the bignum oracle" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_edge_int gen_edge_int))
    (fun (n, d) ->
      let q = outcome (Q.of_ints n) d and r = outcome (R.of_ints n) d in
      Q.to_string (Q.of_int n) = R.to_string (R.of_int n)
      && Result.map Q.to_string q = Result.map R.to_string r)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "to_string" `Quick test_to_string_basic;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "karatsuba large" `Quick test_karatsuba_large;
          Alcotest.test_case "karatsuba signs" `Quick test_karatsuba_signs;
        ] );
      ( "bigint-props",
        qsuite
          [
            prop_add_commutes;
            prop_add_matches_int;
            prop_mul_matches_int;
            prop_divmod_reconstructs;
            prop_string_roundtrip;
            prop_gcd_divides;
            prop_karatsuba_distributes;
          ] );
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
        ] );
      ( "rat-props",
        qsuite
          [
            prop_rat_add_assoc;
            prop_rat_distributive;
            prop_rat_inverse;
            prop_rat_floor_bounds;
            prop_rat_total_order;
            prop_rat_matches_oracle;
            prop_rat_of_float_matches_oracle;
            prop_rat_of_ints_matches_oracle;
          ] );
    ]
