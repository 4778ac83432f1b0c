(** LP-relaxation solver front-end over the float {!Tableau} kernel.

    Converts a {!Model} (finite lower bounds, optional upper bounds,
    [<=]/[>=]/[=] rows, min or max objective) into the bounded standard
    form {!Tableau} expects — model variable [v] is column [v], shifted by
    its lower bound and bounded by its span [u - l] ([0] for a fixed
    variable, none without an upper bound), and slack/surplus columns
    follow the variables — and maps the solution back to model variables.
    Integrality is ignored here; {!Branch_bound} adds it.

    For branch-and-bound the translation can be reused across nodes: an
    [Optimal] outcome carries a {!warm} value — the translated standard
    form, including its {!Tableau.columns} store built once per
    translation, plus the final simplex basis — and a later solve given it
    is warm-started with a dual-simplex re-solve
    ({!Tableau.resolve_with_basis}) instead of a cold two-phase solve. The
    node's bounds reach the kernel as changed columns, a lower offset and a
    span each computed in floats, and only for the variables whose bounds
    differ from the ones the form was translated under. Every bound change
    is expressible this way, a fixed variable coming unfixed included.
    Siblings warmed by one value share its
    snapshot, so the second sibling reuses the factor of the parent basis
    that the first one computed ([lp.simplex.factor_reuses]). *)

type warm
(** The warm start an [Optimal] solve offers: its translated standard form
    and final basis. One value may warm any number of later solves of the
    same model under changed bounds, one at a time: they share the form's
    {!Tableau.columns} store, in whose workspace the kernel writes each
    node's rhs and spans. *)

type outcome =
  | Optimal of { objective : float; values : float array; warm : warm }
      (** [values] is indexed by model variable id; [objective] is the
          model's natural objective value (not sign-normalised). *)
  | Infeasible
  | Unbounded

val solve_relaxation_float :
  ?max_iters:int ->
  ?deadline:float ->
  ?bounds:(Numeric.Rat.t * Numeric.Rat.t option) array ->
  ?warm:warm ->
  Model.t ->
  outcome
(** Floating-point simplex, tolerance [1e-9]. [deadline] is an absolute
    {!Telemetry.Clock} time; when it passes mid-solve
    {!Tableau.Deadline_exceeded} is raised. A cold solve that exceeds
    [max_iters] pivots (default [50_000]) raises {!Tableau.Iteration_limit};
    a warm re-solve that does falls back to a cold solve. [bounds], when
    given, overrides every variable's bounds (indexed by model variable id;
    length must be [Model.var_count]) without touching the model — the
    bound overlay used by {!Branch_bound}, whose nodes must not mutate the
    model. [warm], taken from an earlier
    [Optimal] outcome on the same model (the same [Model.t] value), starts
    a dual-simplex re-solve from that basis; when the basis goes stale, the
    solve falls back to a cold one. A [warm] taken from another model is
    not used: the solve is cold. Warm outcomes are counted under
    [lp.bb.warm_hits] / [lp.bb.warm_fallbacks]. *)
