(** LP-relaxation solver front-end over the float {!Tableau} kernel.

    Converts a {!Model} (finite lower bounds, optional upper bounds,
    [<=]/[>=]/[=] rows, min or max objective) into the bounded standard
    form {!Tableau} expects — model variable [v] is column [v], shifted by
    its lower bound and bounded by its span [u - l] ([0] for a fixed
    variable, none without an upper bound), and slack/surplus columns
    follow the variables — and maps the solution back to model variables.
    Integrality is ignored here; {!Branch_bound} adds it.

    A search translates its model once, into a {!form}. A node is its
    branchings against the form, which reach the kernel as changed columns
    (a lower offset and a span each, in floats). An [Optimal] outcome
    carries a {!warm} value, its form and final basis, and a later node
    given it is re-solved warm by the dual simplex. Each node is one
    kernel call, {!Tableau.solve}: given the snapshot, it falls back
    itself to a cold solve of the node on the same form when the basis
    proves stale, with nothing translated again. Siblings warmed by one
    value share its snapshot, so the second reuses the factor of the
    parent basis that the first computed ([lp.simplex.factor_reuses]). *)

type form
(** The standard form of one model and its {!Tableau.columns} store, in
    whose workspace the kernel writes each node's rhs and spans: one solve
    over a form at a time. Translating one counts its size under
    [lp.simplex.rows], [cols] and [nnz], in the span [lp.simplex.form]. *)

type warm
(** The form and final basis of an [Optimal] solve. One value may warm any
    number of later solves over the same form, one at a time. *)

type outcome =
  | Optimal of { objective : float; values : float array; warm : warm }
      (** [values] is indexed by model variable id; [objective] is the
          model's natural objective value (not sign-normalised). *)
  | Infeasible
  | Unbounded

val form : Model.t -> form
(** The form of the model under its own bounds. *)

val solve :
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:warm ->
  form ->
  (Model.var * Numeric.Rat.t * Numeric.Rat.t option) list ->
  outcome
(** [solve f branchings] solves the node whose bounds are the form's
    changed by [branchings], newest first: [(v, lb, ub)] gives [v] new
    bounds, and a variable's newest entry wins. Only the newest entry is
    checked for crossed bounds ([Infeasible]): each older one was when it
    was new. Floating-point simplex, tolerance [1e-9]. [deadline] is an
    absolute {!Telemetry.Clock} time; when it passes mid-solve
    {!Tableau.Deadline_exceeded} is raised. A cold solve that exceeds
    [max_iters] pivots (default [50_000]) raises {!Tableau.Iteration_limit}.
    [warm] from an earlier [Optimal] outcome over the same form starts a
    dual-simplex re-solve from its basis, counted under [lp.bb.warm_hits],
    or under [lp.bb.warm_fallbacks] when the basis goes stale and the node
    is solved cold on the form. A [warm] from another form is not used. *)

val solve_relaxation_float :
  ?max_iters:int ->
  ?deadline:float ->
  ?bounds:(Numeric.Rat.t * Numeric.Rat.t option) array ->
  Model.t ->
  outcome
(** A cold one-off: {!solve} with no branchings over a form of its own,
    translated under [bounds] (one pair per variable) in place of the
    model's bounds when given; the model is not touched.
    @raise Invalid_argument unless [bounds] holds one pair per variable. *)
