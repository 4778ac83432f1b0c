(** LP-relaxation solver front-end over the float {!Tableau} kernel.

    Converts a {!Model} (arbitrary bounds, [<=]/[>=]/[=] rows, min or max
    objective) into the bounded standard form {!Tableau} expects — shifting
    lower-bounded variables, flipping upper-bound-only ones, splitting free
    ones, passing doubly-bounded spans as implicit column bounds and adding
    slack/surplus columns — and maps the solution back to model variables.
    Integrality is ignored here; {!Branch_bound} adds it.

    For branch-and-bound the translation can be reused across nodes: a
    {!basis} cell carries the translated standard form — including its
    {!Tableau.columns} store, built once per translation — plus the final
    basis of the last [Optimal] solve, and a subsequent solve holding the
    cell is warm-started with a dual-simplex re-solve
    ({!Tableau.resolve_with_basis}) instead of a cold two-phase solve. The
    node's bounds reach the kernel as per-column offsets and spans computed
    in floats, and only for the variables whose bounds differ from the ones
    the form was translated under. Sibling cells share one snapshot, so the
    second sibling reuses the factor of the parent basis that the first one
    computed ([lp.simplex.factor_reuses]). *)

type outcome =
  | Optimal of { objective : float; values : float array }
      (** [values] is indexed by model variable id; [objective] is the
          model's natural objective value (not sign-normalised). *)
  | Infeasible
  | Unbounded

type basis
(** In/out warm-start cell for {!solve_relaxation_float}: after an
    [Optimal] solve it holds the translated standard form and the final
    simplex basis; passed to a later solve of the same model under changed
    bounds it triggers a dual-simplex warm re-solve (falling back to a cold
    solve — and refreshing the cell — when the inherited basis is stale or
    the bound change cannot be expressed in the prepared column space).
    Cells are single-threaded: share them across domains only via
    {!copy_basis}. *)

val new_basis : unit -> basis
(** A fresh, empty cell; the first solve holding it fills it. *)

val copy_basis : basis -> basis
(** An independent cell with the same contents — the copy-on-branch step of
    branch-and-bound (the snapshot and prepared form inside are immutable
    and shared; only the cell itself is fresh). *)

val solve_relaxation_float :
  ?max_iters:int ->
  ?deadline:float ->
  ?bounds:(Numeric.Rat.t option * Numeric.Rat.t option) array ->
  ?basis:basis ->
  Model.t ->
  outcome
(** Floating-point simplex, tolerance [1e-9]. [deadline] is an absolute
    {!Telemetry.Clock} time; when it passes mid-solve
    {!Tableau.Deadline_exceeded} is raised. A cold solve that exceeds
    [max_iters] pivots (default [50_000]) raises {!Tableau.Iteration_limit};
    a warm re-solve that does falls back to a cold solve. [bounds], when
    given, overrides every variable's bounds (indexed by model variable id;
    length must be [Model.var_count]) without touching the model — the
    bound-overlay used by the multi-domain branch-and-bound, whose nodes
    must not mutate the shared model. [basis] enables dual-simplex warm starts as described on
    {!basis}; warm outcomes are counted under [lp.bb.warm_hits] /
    [lp.bb.warm_fallbacks]. *)
