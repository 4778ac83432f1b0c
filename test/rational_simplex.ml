(* Reference LP solver for the kernel tests: a dense two-phase simplex in
   exact rational arithmetic with Bland's rule, which cannot cycle. It is
   slow on purpose — every pivot rewrites the whole tableau — and shares no
   code with [Lp.Tableau], so a disagreement points at the kernel. *)

module Q = Numeric.Rat
module M = Lp.Model

type outcome =
  | Optimal of { objective : Q.t; values : Q.t array }
  | Infeasible
  | Unbounded

let solve model =
  let nvars = M.var_count model in
  (* x_v = offset.(v) + sum of coef * y_col over [cols.(v)], all y >= 0;
     a doubly-bounded variable also gets the row y <= ub - lb *)
  let offset = Array.make nvars Q.zero and cols = Array.make nvars [] in
  let ncols = ref 0 and bound_rows = ref [] in
  let fresh () = incr ncols; !ncols - 1 in
  for v = 0 to nvars - 1 do
    let l = M.var_lb model v in
    let y = fresh () in
    offset.(v) <- l;
    cols.(v) <- [ (y, Q.one) ];
    Option.iter
      (fun u -> bound_rows := ([ (y, Q.one) ], M.Le, Q.sub u l) :: !bound_rows)
      (M.var_ub model v)
  done;
  let translate expr =
    Lp.Linexpr.fold
      (fun v a (terms, k) ->
        ( List.map (fun (y, c) -> (y, Q.mul a c)) cols.(v) @ terms,
          Q.add k (Q.mul a offset.(v)) ))
      expr ([], Q.zero)
  in
  let rows =
    List.map
      (fun (_, expr, sense, rhs) ->
        let terms, k = translate expr in
        (terms, sense, Q.sub rhs k))
      (M.constraints model)
    @ !bound_rows
  in
  (* Columns: structural, one slack per inequality, one artificial per row;
     the last column is the rhs. *)
  let m = List.length rows in
  let art0 = !ncols + List.length (List.filter (fun (_, s, _) -> s <> M.Eq) rows) in
  let width = art0 + m in
  let t = Array.make_matrix m (width + 1) Q.zero in
  List.iteri
    (fun i (terms, sense, rhs) ->
      let r = t.(i) in
      List.iter (fun (y, c) -> r.(y) <- Q.add r.(y) c) terms;
      if sense <> M.Eq then r.(fresh ()) <- (if sense = M.Le then Q.one else Q.minus_one);
      r.(width) <- rhs;
      if Q.sign rhs < 0 then Array.iteri (fun j a -> r.(j) <- Q.neg a) r;
      r.(art0 + i) <- Q.one)
    rows;
  let basis = Array.init m (fun i -> art0 + i) in
  let pivot r j =
    t.(r) <- Array.map (Q.mul (Q.inv t.(r).(j))) t.(r);
    Array.iteri
      (fun i row ->
        let f = row.(j) in
        if i <> r && not (Q.is_zero f) then
          t.(i) <- Array.mapi (fun k a -> Q.sub a (Q.mul f t.(r).(k))) row)
      t;
    basis.(r) <- j
  in
  (* Minimise [cost] from the current feasible basis; artificials never
     enter. Bland: smallest improving column, smallest leaving basic. *)
  let rec run cost =
    let reduced j =
      let d = ref cost.(j) in
      Array.iteri (fun i b -> d := Q.sub !d (Q.mul cost.(b) t.(i).(j))) basis;
      !d
    in
    let rec entering j =
      if j >= art0 then None
      else if Q.sign (reduced j) < 0 then Some j
      else entering (j + 1)
    in
    match entering 0 with
    | None -> `Optimal
    | Some j ->
      let leave = ref None in
      for i = 0 to m - 1 do
        if Q.sign t.(i).(j) > 0 then begin
          let ratio = Q.div t.(i).(width) t.(i).(j) in
          match !leave with
          | Some (r, best)
            when Q.compare ratio best > 0
                 || (Q.equal ratio best && basis.(r) < basis.(i)) -> ()
          | Some _ | None -> leave := Some (i, ratio)
        end
      done;
      (match !leave with
       | None -> `Unbounded
       | Some (r, _) -> pivot r j; run cost)
  in
  ignore (run (Array.init width (fun j -> if j >= art0 then Q.one else Q.zero)));
  if Array.exists2 (fun b row -> b >= art0 && Q.sign row.(width) <> 0) basis t
  then Infeasible
  else begin
    (* Pivot zero-level artificials out where the row allows it; a row with
       no structural or slack entry left is redundant and keeps its
       artificial at 0, which no phase-2 pivot can move. *)
    Array.iteri
      (fun i b ->
        let rec find j =
          if j < art0 then if Q.is_zero t.(i).(j) then find (j + 1) else pivot i j
        in
        if b >= art0 then find 0)
      basis;
    let dir, obj = M.objective model in
    let sign = match dir with `Minimize -> Q.one | `Maximize -> Q.minus_one in
    let cost = Array.make width Q.zero in
    List.iter (fun (y, c) -> cost.(y) <- Q.add cost.(y) (Q.mul sign c)) (fst (translate obj));
    match run cost with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let y = Array.make width Q.zero in
      Array.iteri (fun i b -> y.(b) <- t.(i).(width)) basis;
      let values =
        Array.init nvars (fun v ->
            List.fold_left (fun acc (col, c) -> Q.add acc (Q.mul c y.(col))) offset.(v) cols.(v))
      in
      Optimal { objective = Lp.Linexpr.eval (fun v -> values.(v)) obj; values }
  end
