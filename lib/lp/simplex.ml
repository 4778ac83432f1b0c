module Q = Numeric.Rat

(* The standard form translated from one set of variable bounds, a
   {!Tableau.columns} store, and what maps its columns back. Model variable
   [v] is column [v], shifted by its lower bound and bounded by the span
   [u - l]: [0] for a fixed variable, [infinity] without an upper bound.
   Slack columns follow the variables. Nodes of a branch-and-bound tree
   reuse the form: a child's changed bounds reach the kernel as per-column
   (lo, span) changes, which it applies to its own copy of the rhs and
   spans, so the constraint matrix, costs and column identities never
   change and the parent's basis snapshot stays structurally valid for a
   dual-simplex re-solve. Every bound change is expressible this way, a
   fixed variable coming unfixed included. *)
type prepared = {
  p_model : Model.t; (* the model translated; a warm start serves only it *)
  p_offset : float array; (* per variable, [Q.to_float] of its lower bound *)
  p_lb : Q.t array; (* the bounds the form was translated under *)
  p_ub : Q.t option array;
  p_cols : Tableau.columns;
  p_obj_offset : float; (* [Q.to_float] of the sign-normalised constant *)
  p_dir : [ `Minimize | `Maximize ];
}

(* What an [Optimal] solve hands on for warm re-solves: the form it solved
   and its final basis. One value may warm any number of later solves; the
   snapshot's factor memo only saves them a refactorisation. *)
type warm = { w_prepared : prepared; w_snapshot : Tableau.snapshot }

type outcome =
  | Optimal of { objective : float; values : float array; warm : warm }
  | Infeasible
  | Unbounded

let effective_bounds ?bounds model =
  let nvars = Model.var_count model in
  match bounds with
  | Some bs ->
    if Array.length bs <> nvars then
      invalid_arg "Simplex.solve_relaxation_float: bounds length";
    (Array.map fst bs, Array.map snd bs)
  | None ->
    ( Array.init nvars (fun v -> Model.var_lb model v),
      Array.init nvars (fun v -> Model.var_ub model v) )

(* Map a kernel solution of form [p] back to model variables and the
   natural objective (the objective constant re-added, the max->min sign
   flip undone), keeping the final basis [snapshot] as the warm start it
   offers. *)
let outcome_of p value x snapshot =
  let base = value +. p.p_obj_offset in
  Optimal
    {
      objective = (match p.p_dir with `Minimize -> base | `Maximize -> -.base);
      values = Array.mapi (fun v off -> x.(v) +. off) p.p_offset;
      warm = { w_prepared = p; w_snapshot = snapshot };
    }

(* Full translation of the model under the effective per-variable bounds
   [lb] / [ub], which must not cross. *)
let prepare ~lb ~ub model =
  let nvars = Model.var_count model in
  (* Translate a model expression into (column terms, constant). [Linexpr]
     is canonical (one term per variable), so terms need no merging. *)
  let translate expr =
    let konst = ref (Linexpr.const_part expr) in
    let acc = ref [] in
    Linexpr.fold
      (fun v c () ->
        if not (Q.is_zero c) then acc := (v, c) :: !acc;
        konst := Q.add !konst (Q.mul c lb.(v)))
      expr ();
    (!acc, !konst)
  in
  (* rows: (terms over columns, sense, rhs) *)
  let row_list =
    List.map
      (fun (_name, expr, sense, rhs) ->
        let terms, k = translate expr in
        (terms, sense, Q.sub rhs k))
      (Model.constraints model)
  in
  let m = List.length row_list in
  let dir, obj_expr = Model.objective model in
  let obj_terms, obj_const = translate obj_expr in
  (* Slack / surplus columns after the variables; normalise rhs signs
     afterwards. *)
  let n = ref nvars in
  let slack_of_row = Array.make (max 1 m) (-1) in
  List.iteri
    (fun i (_, sense, _) ->
      match sense with
      | Model.Le | Model.Ge ->
        slack_of_row.(i) <- !n;
        incr n
      | Model.Eq -> ())
    row_list;
  let n = !n in
  (* Column-wise sparse assembly: each (row, col) pair occurs at most once. *)
  let col_entries = Array.make n [] in
  let b = Array.make m 0.0 in
  let nnz = ref 0 in
  List.iteri
    (fun i (terms, sense, rhs) ->
      let flip = Q.sign rhs < 0 in
      let put col q =
        let q = if flip then Q.neg q else q in
        col_entries.(col) <- (i, Q.to_float q) :: col_entries.(col);
        incr nnz
      in
      List.iter (fun (col, q) -> put col q) terms;
      (match sense with
       | Model.Le -> put slack_of_row.(i) Q.one
       | Model.Ge -> put slack_of_row.(i) Q.minus_one
       | Model.Eq -> ());
      b.(i) <- Q.to_float (if flip then Q.neg rhs else rhs))
    row_list;
  let c = Array.make n 0.0 in
  let obj_sign = match dir with `Minimize -> Q.one | `Maximize -> Q.minus_one in
  List.iter
    (fun (col, q) -> c.(col) <- c.(col) +. Q.to_float (Q.mul obj_sign q))
    obj_terms;
  (* Every variable's span is an implicit column bound handled by the
     bounded-variable kernel, not an explicit [x <= u - l] row: on the
     branch-and-bound relaxations nearly every variable is boxed, so this
     roughly halves the row count. *)
  let ubs = Array.make n infinity in
  Array.iteri
    (fun v u -> Option.iter (fun u -> ubs.(v) <- Q.to_float (Q.sub u lb.(v))) u)
    ub;
  Telemetry.count ~by:m "lp.simplex.rows";
  Telemetry.count ~by:n "lp.simplex.cols";
  Telemetry.count ~by:!nnz "lp.simplex.nnz";
  {
    p_model = model;
    p_offset = Array.map Q.to_float lb;
    p_lb = lb;
    p_ub = ub;
    p_cols =
      Tableau.columns ~b ~c ~ubs
        (Array.map (fun l -> Array.of_list (List.rev l)) col_entries);
    p_obj_offset = Q.to_float (Q.mul obj_sign obj_const);
    p_dir = dir;
  }

(* Cold primal solve over a fresh translation. *)
let cold_solve ?max_iters ?deadline ~lb ~ub model =
  let p = prepare ~lb ~ub model in
  match
    Telemetry.span "lp.simplex.kernel" (fun () ->
        Tableau.solve_cols ?max_iters ?deadline p.p_cols)
  with
  | Tableau.Infeasible -> Infeasible
  | Tableau.Unbounded -> Unbounded
  | Tableau.Optimal { value; x; snapshot } -> outcome_of p value x snapshot

let same_lb a b = a == b || Q.equal a b
let same_ub a b = a == b || Option.equal Q.equal a b

(* The variables whose node bounds differ from the prepared form's, in
   ascending order. On a branch-and-bound node that is the handful of
   branched variables, and the bound values of the rest are the very values
   the form was prepared from, so [==] settles them without arithmetic. *)
let changed_vars p ~lb ~ub =
  let acc = ref [] in
  for v = Array.length p.p_lb - 1 downto 0 do
    if not (same_lb lb.(v) p.p_lb.(v) && same_ub ub.(v) p.p_ub.(v)) then
      acc := v :: !acc
  done;
  !acc

(* The node bounds [lb] / [ub] as the kernel's changed columns
   [(col, lower offset, span)]. Only the [changed] variables are listed:
   every other column keeps a zero offset and its prepared span, which is
   what the translation of an unchanged bound gives. Variable [v] is
   column [v], so the columns ascend. *)
let column_changes p changed ~lb ~ub =
  List.map
    (fun v ->
      let l' = lb.(v) in
      ( v,
        Q.to_float (Q.sub l' p.p_lb.(v)),
        match ub.(v) with Some u' -> Q.to_float (Q.sub u' l') | None -> infinity ))
    changed

let warm_solve ?max_iters ?deadline p snap changed ~lb ~ub =
  let changes = column_changes p changed ~lb ~ub in
  match
    Telemetry.span "lp.simplex.kernel" (fun () ->
        Tableau.resolve_with_basis ?max_iters ?deadline p.p_cols ~snapshot:snap
          ~changes)
  with
  | Error reason -> Error reason
  | Ok Tableau.Infeasible -> Ok Infeasible
  | Ok Tableau.Unbounded -> Ok Unbounded
  | Ok (Tableau.Optimal { value; x; snapshot }) -> Ok (outcome_of p value x snapshot)

let crossed l u = match u with Some u -> Q.compare l u > 0 | None -> false

let solve_relaxation_float ?max_iters ?deadline ?bounds ?warm model =
  Telemetry.span "lp.simplex.solve" @@ fun () ->
  Telemetry.count "lp.simplex.relaxations";
  let lb, ub = effective_bounds ?bounds model in
  match warm with
  | Some { w_prepared = p; w_snapshot = snap } when p.p_model == model ->
    (* The prepared bounds passed the crossing test before the form was
       built from them, so only a changed bound can cross. *)
    let changed = changed_vars p ~lb ~ub in
    if List.exists (fun v -> crossed lb.(v) ub.(v)) changed then Infeasible
    else begin
      match warm_solve ?max_iters ?deadline p snap changed ~lb ~ub with
      | Ok outcome ->
        Telemetry.count "lp.bb.warm_hits";
        outcome
      | Error _reason ->
        (* stale basis: full cold re-solve, whose basis warms the subtree
           below *)
        Telemetry.count "lp.bb.warm_fallbacks";
        cold_solve ?max_iters ?deadline ~lb ~ub model
    end
  | Some _ | None ->
    (* no warm start for this model: a plain cold solve, no fallback
       counted *)
    if Array.exists2 crossed lb ub then Infeasible
    else cold_solve ?max_iters ?deadline ~lb ~ub model
