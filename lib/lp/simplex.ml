module Q = Numeric.Rat

(* The standard form translated from one set of variable bounds, a
   {!Tableau.columns} store, and what maps its columns back. Model variable
   [v] is column [v], shifted by its lower bound and bounded by the span
   [u - l]: [0] for a fixed variable, [infinity] without an upper bound.
   Slack columns follow the variables. A node's branchings reach the
   kernel as per-column (lo, span) changes, so the matrix, costs and
   column identities never change and every basis of the form fits every
   node. *)
type form = {
  f_lb : Q.t array; (* the lower bounds the form was translated under *)
  f_offset : float array; (* per variable, [Q.to_float] of its lower bound *)
  f_crossed : bool; (* some variable's bounds cross: every node is infeasible *)
  f_cols : Tableau.columns;
  f_obj_offset : float; (* [Q.to_float] of the sign-normalised constant *)
  f_dir : [ `Minimize | `Maximize ];
}

(* What an [Optimal] solve hands on for warm re-solves: the form it solved
   and its final basis. One value may warm any number of later solves; the
   snapshot's factor memo only saves them a refactorisation. *)
type warm = { w_form : form; w_snapshot : Tableau.snapshot }

type outcome =
  | Optimal of { objective : float; values : float array; warm : warm }
  | Infeasible
  | Unbounded

let crossed l u = match u with Some u -> Q.compare l u > 0 | None -> false

(* Full translation of the model under the per-variable bounds [lb] /
   [ub]. A crossed pair marks the form infeasible and gets span [0]. *)
let prepare ~lb ~ub model =
  Telemetry.span "lp.simplex.form" @@ fun () ->
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
  (* Slack / surplus columns after the variables, in row order. *)
  let n = nvars + List.length (List.filter (fun (_, s, _) -> s <> Model.Eq) row_list) in
  (* Column-wise sparse assembly: each (row, col) pair occurs at most once;
     a row whose rhs is negative is negated. *)
  let col_entries = Array.make n [] in
  let b = Array.make m 0.0 in
  let nnz = ref 0 and slack = ref nvars in
  List.iteri
    (fun i (terms, sense, rhs) ->
      let flip = Q.sign rhs < 0 in
      let put col q =
        let q = if flip then Q.neg q else q in
        col_entries.(col) <- (i, Q.to_float q) :: col_entries.(col);
        incr nnz
      in
      List.iter (fun (col, q) -> put col q) terms;
      if sense <> Model.Eq then begin
        put !slack (if sense = Model.Le then Q.one else Q.minus_one);
        incr slack
      end;
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
    (fun v u ->
      Option.iter (fun u -> ubs.(v) <- Float.max 0.0 (Q.to_float (Q.sub u lb.(v)))) u)
    ub;
  Telemetry.count ~by:m "lp.simplex.rows";
  Telemetry.count ~by:n "lp.simplex.cols";
  Telemetry.count ~by:!nnz "lp.simplex.nnz";
  {
    f_lb = lb;
    f_offset = Array.map Q.to_float lb;
    f_crossed = Array.exists2 crossed lb ub;
    f_cols =
      Tableau.columns ~b ~c ~ubs
        (Array.map (fun l -> Array.of_list (List.rev l)) col_entries);
    f_obj_offset = Q.to_float (Q.mul obj_sign obj_const);
    f_dir = dir;
  }

let form model =
  let nvars = Model.var_count model in
  prepare model
    ~lb:(Array.init nvars (Model.var_lb model))
    ~ub:(Array.init nvars (Model.var_ub model))

(* A node's branchings, newest first, as the kernel's changed columns
   [(col, lower offset, span)]: the newest bounds of each branched
   variable, ascending. Every other column keeps a zero offset and its
   form's span, which is what the translation of an unchanged bound
   gives. *)
let column_changes f branchings =
  let rec newest prev = function
    | [] -> []
    | (v, _, _) :: rest when v = prev -> newest prev rest
    | (v, l, u) :: rest ->
      let span = match u with Some u -> Q.to_float (Q.sub u l) | None -> infinity in
      (v, Q.to_float (Q.sub l f.f_lb.(v)), span) :: newest v rest
  in
  newest (-1)
    (List.stable_sort (fun (v, _, _) (w, _, _) -> Int.compare v w) branchings)

let solve ?deadline ?warm f branchings =
  Telemetry.span "lp.simplex.solve" @@ fun () ->
  Telemetry.count "lp.simplex.relaxations";
  (* The form's bounds were checked when it was translated, and a node's
     older branchings when they were new: only the newest can cross. *)
  match branchings with
  | _ when f.f_crossed -> Infeasible
  | (_, l, u) :: _ when crossed l u -> Infeasible
  | _ -> (
    let snapshot =
      match warm with
      | Some { w_form; w_snapshot } when w_form == f -> Some w_snapshot
      | Some _ | None -> None (* no warm start for this form *)
    in
    let changes = column_changes f branchings in
    match
      Telemetry.span "lp.simplex.kernel" (fun () ->
          Tableau.solve ?deadline ?snapshot ~changes f.f_cols)
    with
    | Tableau.Infeasible -> Infeasible
    | Tableau.Unbounded -> Unbounded
    | Tableau.Optimal { value; x; snapshot } ->
      (* back to model variables and the natural objective (the constant
         re-added, the max->min sign flip undone), the final basis kept as
         the warm start it offers *)
      let base = value +. f.f_obj_offset in
      Optimal
        {
          objective = (match f.f_dir with `Minimize -> base | `Maximize -> -.base);
          values = Array.mapi (fun v off -> x.(v) +. off) f.f_offset;
          warm = { w_form = f; w_snapshot = snapshot };
        })

let solve_relaxation_float ?deadline ?bounds model =
  let f =
    match bounds with
    | None -> form model
    | Some bs when Array.length bs = Model.var_count model ->
      prepare model ~lb:(Array.map fst bs) ~ub:(Array.map snd bs)
    | Some _ -> invalid_arg "Simplex.solve_relaxation_float: bounds length"
  in
  solve ?deadline f []
