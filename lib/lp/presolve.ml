module Q = Numeric.Rat

type outcome = Reduced of { model : Model.t; changes : int } | Proved_infeasible

type bound = Finite of Q.t | Inf

let add_bound a b =
  match (a, b) with Finite x, Finite y -> Finite (Q.add x y) | _ -> Inf

(* Activity bounds of [expr] under the variable bounds [lbs]/[ubs]: (min,
   max), where [Inf] means -inf for the min component and +inf for the
   max. *)
let activity ~lbs ~ubs expr =
  let term v c (mn, mx) =
    let at_lb = Finite (Q.mul c lbs.(v)) in
    let at_ub = match ubs.(v) with Some u -> Finite (Q.mul c u) | None -> Inf in
    let lo, hi = if Q.sign c >= 0 then (at_lb, at_ub) else (at_ub, at_lb) in
    (add_bound mn lo, add_bound mx hi)
  in
  Linexpr.fold term expr (Finite Q.zero, Finite Q.zero)

exception Infeasible_found

(* Rounds stop at a fixed point or after this many. *)
let max_rounds = 10

let run ?deadline model =
  (* The passes work on these copies of the model's bounds and rows; the
     model itself is only read. *)
  let nv = Model.var_count model in
  let lbs = Array.init nv (Model.var_lb model) in
  let ubs = Array.init nv (Model.var_ub model) in
  let rows = ref (Model.constraints model) in
  let activity = activity ~lbs ~ubs in
  let changes = ref 0 in
  (* Deadline: the clock is read every 256 rows visited, by any pass. Once
     it has passed, every later row is kept as it is and the rounds stop;
     each reduction made before that is valid on its own. *)
  let expired = ref false and visited = ref 0 in
  let out_of_time () =
    (match deadline with
     | Some d when not !expired ->
       incr visited;
       if !visited land 255 = 0 && Telemetry.Clock.now_s () > d then expired := true
     | Some _ | None -> ());
    !expired
  in
  let rows_removed = ref 0 in
  let singleton_rows = ref 0 in
  let coeffs_tightened = ref 0 in
  let cols_fixed = ref 0 in
  let tighten_lb v cand =
    let cand = if Model.is_integer_var model v then Q.of_bigint (Q.ceil cand) else cand in
    if Q.compare cand lbs.(v) > 0 then begin
      (match ubs.(v) with
       | Some u when Q.compare cand u > 0 -> raise Infeasible_found
       | Some _ | None -> ());
      lbs.(v) <- cand;
      incr changes
    end
  in
  let tighten_ub v cand =
    let cand = if Model.is_integer_var model v then Q.of_bigint (Q.floor cand) else cand in
    let better = match ubs.(v) with None -> true | Some u -> Q.compare cand u < 0 in
    if better then begin
      if Q.compare cand lbs.(v) < 0 then raise Infeasible_found;
      ubs.(v) <- Some cand;
      incr changes
    end
  in
  (* [0, 1] integer variable that is not yet fixed — the only shape the
     coefficient-tightening argument below covers. *)
  let is_binary v =
    Model.is_integer_var model v
    && Q.sign lbs.(v) = 0
    && (match ubs.(v) with Some u -> Q.equal u Q.one | None -> false)
  in
  (* Row pass: constant and singleton rows become (nothing | a bound) and are
     dropped; rows whose activity range cannot violate them are dropped; on
     inequality rows, coefficients of binary variables are tightened.

     Removal stays valid for the whole branch-and-bound search because
     branching only shrinks bounds, which only shrinks activity ranges. *)
  let row_pass () =
    let row ((name, expr, sense, rhs) as kept) =
      match Linexpr.terms expr with
      | _ when out_of_time () -> Some kept
      | [] ->
        let sat =
          match sense with
          | Model.Le -> Q.sign rhs >= 0
          | Model.Ge -> Q.sign rhs <= 0
          | Model.Eq -> Q.sign rhs = 0
        in
        if not sat then raise Infeasible_found;
        incr rows_removed;
        incr changes;
        None
      | [ (v, c) ] ->
        let q = Q.div rhs c in
        (match sense with
         | Model.Le -> if Q.sign c > 0 then tighten_ub v q else tighten_lb v q
         | Model.Ge -> if Q.sign c > 0 then tighten_lb v q else tighten_ub v q
         | Model.Eq ->
           tighten_lb v q;
           tighten_ub v q);
        incr singleton_rows;
        incr rows_removed;
        incr changes;
        None
      | _ ->
        let mn, mx = activity expr in
        let le_redundant =
          match mx with Finite x -> Q.compare x rhs <= 0 | Inf -> false
        in
        let ge_redundant =
          match mn with Finite x -> Q.compare x rhs >= 0 | Inf -> false
        in
        let redundant =
          match sense with
          | Model.Le -> le_redundant
          | Model.Ge -> ge_redundant
          | Model.Eq -> le_redundant && ge_redundant
        in
        if redundant then begin
          incr rows_removed;
          incr changes;
          None
        end
        else begin
          match sense with
          | Model.Eq -> Some kept
          | Model.Le | Model.Ge ->
            (* Work in <= form: [e <= b] with max activity [mx]. For a
               binary x with coefficient a and gap = mx - b > 0:
               - a > gap > 0: replace (a, b) by (gap, mx - a). At x = 1
                 both forms say rest <= b - a; at x = 0 the new row says
                 rest <= mx - a, which every point within bounds already
                 satisfies — so no integer point is cut, but the LP
                 relaxation is strictly tighter (big-M reduction).
               - a < -gap < 0: the same rule on the complement 1 - x
                 gives (-(gap), b) with the rhs unchanged. *)
            let e0, b0, mx0 =
              match sense with
              | Model.Le -> (expr, rhs, mx)
              | Model.Ge -> (Linexpr.neg expr, Q.neg rhs, match mn with
                  | Finite x -> Finite (Q.neg x)
                  | Inf -> Inf)
              | Model.Eq -> assert false
            in
            (match mx0 with
             | Inf -> Some kept
             | Finite mx0 ->
               let e = ref e0 and b = ref b0 and mx = ref mx0 in
               let changed = ref false in
               List.iter
                 (fun (v, _) ->
                   if is_binary v then begin
                     let a = Linexpr.coeff !e v in
                     let gap = Q.sub !mx !b in
                     if Q.sign gap > 0 then
                       if Q.sign a > 0 && Q.compare gap a < 0 then begin
                         let b' = Q.sub !mx a in
                         e := Linexpr.add_term !e (Q.sub gap a) v;
                         mx := Q.add b' gap;
                         b := b';
                         changed := true;
                         incr coeffs_tightened;
                         incr changes
                       end
                       else if Q.sign a < 0 && Q.compare gap (Q.neg a) < 0
                       then begin
                         e := Linexpr.add_term !e (Q.sub (Q.neg gap) a) v;
                         changed := true;
                         incr coeffs_tightened;
                         incr changes
                       end
                   end)
                 (Linexpr.terms e0);
               if not !changed then Some kept
               else
                 match sense with
                 | Model.Le -> Some (name, !e, Model.Le, !b)
                 | Model.Ge -> Some (name, Linexpr.neg !e, Model.Ge, Q.neg !b)
                 | Model.Eq -> assert false)
        end
    in
    rows := List.filter_map row !rows
  in
  (* Propagate one inequality [expr <= rhs]. For variable v with coeff c:
     c*x_v <= rhs - min_activity(expr - c*x_v). *)
  let propagate_le expr rhs =
    let mn_all, _ = activity expr in
    (match mn_all with
     | Finite mn when Q.compare mn rhs > 0 -> raise Infeasible_found
     | Finite _ | Inf -> ());
    let handle v c () =
      (* min activity of the rest = mn_all - contribution_min(v), valid only
         when v's own min contribution is finite. *)
      let own_min =
        if Q.sign c >= 0 then Some (Q.mul c lbs.(v))
        else Option.map (Q.mul c) ubs.(v)
      in
      match (mn_all, own_min) with
      | Finite mn, Some own ->
        let rest = Q.sub mn own in
        let slack = Q.sub rhs rest in
        if Q.sign c > 0 then tighten_ub v (Q.div slack c)
        else if Q.sign c < 0 then tighten_lb v (Q.div slack c)
      | (Inf | Finite _), _ -> ()
    in
    Linexpr.fold (fun v c () -> handle v c ()) expr ()
  in
  let propagate (_name, expr, sense, rhs) =
    match sense with
    | _ when out_of_time () -> ()
    | Model.Le -> propagate_le expr rhs
    | Model.Ge -> propagate_le (Linexpr.neg expr) (Q.neg rhs)
    | Model.Eq ->
      propagate_le expr rhs;
      propagate_le (Linexpr.neg expr) (Q.neg rhs)
  in
  (* Duality fixing (one-sided dominated columns): if moving a variable
     towards one of its finite bounds can never violate any constraint and
     never worsens the objective, fix it there. The optimal value is
     preserved (some alternative optima may be cut), and branch-and-bound
     never branches on a fixed variable, so the fixing survives the whole
     search. *)
  let duality_pass () =
    let can_up = Array.make nv true and can_down = Array.make nv true in
    List.iter
      (fun (_, expr, sense, _) ->
        Linexpr.fold
          (fun v c () ->
            match sense with
            | Model.Le ->
              if Q.sign c > 0 then can_up.(v) <- false
              else if Q.sign c < 0 then can_down.(v) <- false
            | Model.Ge ->
              if Q.sign c > 0 then can_down.(v) <- false
              else if Q.sign c < 0 then can_up.(v) <- false
            | Model.Eq ->
              if Q.sign c <> 0 then begin
                can_up.(v) <- false;
                can_down.(v) <- false
              end)
          expr ())
      !rows;
    let dir, obj = Model.objective model in
    for v = 0 to nv - 1 do
      let lb = lbs.(v) and ub = ubs.(v) in
      let fixed = match ub with Some u -> Q.equal lb u | None -> false in
      if not fixed then begin
        let c =
          let c = Linexpr.coeff obj v in
          match dir with `Minimize -> c | `Maximize -> Q.neg c
        in
        if Q.sign c >= 0 && can_down.(v) then begin
          ubs.(v) <- Some lb;
          incr cols_fixed;
          incr changes
        end
        else if Q.sign c <= 0 && can_up.(v) then
          match ub with
          | Some u ->
            lbs.(v) <- u;
            incr cols_fixed;
            incr changes
          | None -> ()
      end
    done
  in
  try
    let round = ref 0 in
    let continue_ = ref true in
    while !continue_ && !round < max_rounds do
      incr round;
      let before = !changes in
      row_pass ();
      List.iter propagate !rows;
      if !expired then continue_ := false
      else begin
        duality_pass ();
        if !changes = before then continue_ := false
      end
    done;
    Telemetry.count "lp.presolve.runs";
    if !expired then Telemetry.count "lp.presolve.deadline_stops";
    Telemetry.count ~by:!round "lp.presolve.rounds";
    Telemetry.count ~by:!changes "lp.presolve.tightenings";
    Telemetry.count ~by:!rows_removed "lp.presolve.rows_removed";
    Telemetry.count ~by:!singleton_rows "lp.presolve.singleton_rows";
    Telemetry.count ~by:!coeffs_tightened "lp.presolve.coeffs_tightened";
    Telemetry.count ~by:!cols_fixed "lp.presolve.cols_fixed";
    Reduced { model = Model.reduce model ~lbs ~ubs !rows; changes = !changes }
  with Infeasible_found ->
    Telemetry.count "lp.presolve.proved_infeasible";
    Proved_infeasible
