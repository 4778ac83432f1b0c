module Q = Numeric.Rat
module Imap = Map.Make (Int)

type t = { terms : Q.t Imap.t; const : Q.t }

let zero = { terms = Imap.empty; const = Q.zero }
let constant k = { terms = Imap.empty; const = k }
let of_int k = constant (Q.of_int k)

let term c v =
  if v < 0 then invalid_arg "Linexpr.term: negative variable id";
  if Q.is_zero c then zero else { terms = Imap.singleton v c; const = Q.zero }

let var v = term Q.one v
let iterm c v = term (Q.of_int c) v

let norm c = if Q.is_zero c then None else Some c

let add a b =
  let merge _ x y =
    match (x, y) with
    | Some x, Some y -> norm (Q.add x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  { terms = Imap.merge merge a.terms b.terms; const = Q.add a.const b.const }

let scale k a =
  if Q.is_zero k then zero
  else { terms = Imap.map (Q.mul k) a.terms; const = Q.mul k a.const }

let scale_int k a = scale (Q.of_int k) a
let neg a = scale Q.minus_one a
let sub a b = add a (neg b)
let add_term a c v = add a (term c v)
let add_constant a k = { a with const = Q.add a.const k }
let sum exprs = List.fold_left add zero exprs

let coeff a v = match Imap.find_opt v a.terms with Some c -> c | None -> Q.zero
let const_part a = a.const
let terms a = Imap.bindings a.terms
let fold f a init = Imap.fold f a.terms init
let is_constant a = Imap.is_empty a.terms

let eval value a =
  Imap.fold (fun v c acc -> Q.add acc (Q.mul c (value v))) a.terms a.const

let eval_float value a =
  Imap.fold (fun v c acc -> acc +. (Q.to_float c *. value v)) a.terms (Q.to_float a.const)

let max_var a = match Imap.max_binding_opt a.terms with Some (v, _) -> v | None -> -1

let pp name fmt a =
  let first = ref true in
  let emit_term v c =
    let s = Q.sign c in
    let mag = Q.abs c in
    if !first then begin
      first := false;
      if s < 0 then Format.pp_print_string fmt "-"
    end
    else Format.fprintf fmt " %s " (if s < 0 then "-" else "+");
    if not (Q.equal mag Q.one) then Format.fprintf fmt "%s " (Q.to_string mag);
    Format.pp_print_string fmt (name v)
  in
  Imap.iter emit_term a.terms;
  if not (Q.is_zero a.const) then begin
    if !first then Format.pp_print_string fmt (Q.to_string a.const)
    else begin
      let s = Q.sign a.const in
      Format.fprintf fmt " %s %s" (if s < 0 then "-" else "+") (Q.to_string (Q.abs a.const))
    end
  end
  else if !first then Format.pp_print_string fmt "0"
