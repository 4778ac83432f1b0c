(** Sparse revised two-phase primal simplex on bounded standard-form
    problems

    {[ minimise  c . x   subject to   A x = b,  0 <= x <= u ]}

    with [b >= 0] (the caller flips row signs beforehand) and [u] optional
    per column, in IEEE doubles with tolerance [1e-9]. The constraint matrix
    is held sparse in a {!columns} store, column-wise and row-wise, built
    once per standard form and shared read-only by every solve over it, and
    the basis inverse as a {!Factor}, so an iteration costs the nonzeros it
    touches rather than [m * n]. Upper bounds are enforced inside the ratio
    test (a step may end in a bound flip with no basis change) instead of
    as explicit rows. An [Optimal] result carries the {!snapshot} of its
    final basis, and a dual-simplex phase re-solves a child node from it;
    a dual iteration costs one BTRAN (the pivot row) and one FTRAN (the
    entering column), plus one FTRAN for any bound flips. This is the
    kernel under {!Simplex}.

    Each solve counts its BTRANs and FTRANs ([lp.simplex.btrans],
    [lp.simplex.ftrans]; a refactorisation's own column transforms are not
    counted) and its phase-1 pivots ([lp.simplex.phase1_pivots]). Every
    refactorisation records the nonzeros of the file it built
    ([lp.simplex.factor_nnz]) and its bump columns
    ([lp.simplex.bump_cols]), and the dual phase sums the nonzeros of each
    row of [B^-1] it prices and of the pivot row over its candidate columns
    ([lp.simplex.rho_nnz], [lp.simplex.pivot_row_nnz]).

    {b One solve at a time per store.} Every scratch array a solve needs
    lives in a workspace owned by its {!columns} store, allocated once with
    it, so only a solve's results and its eta records are allocated per
    solve. Two solves over the same store must therefore not run at the
    same time (on two domains, or one inside another); solves over
    different stores are independent. A solve never reads what an earlier
    one left in the workspace, including one aborted by an exception. *)

exception Deadline_exceeded
(** Raised (from inside the pivot loop) when a [deadline] passes before the
    solve finishes, so time-limited callers are not at the mercy of one
    long-running relaxation. *)

exception Iteration_limit
(** Raised by a primal solve that exceeds its [max_iters] pivot budget.
    Branch-and-bound abandons the node that hit it and keeps searching. *)

exception Singular
(** Raised by a primal solve whose basis has broken down numerically:
    either a refactorisation finds it singular ({!Factor.Singular}), or
    phase 1 reports its objective, a sum of artificials bounded below by 0,
    unbounded.
    Branch-and-bound abandons the node, as for {!Iteration_limit}; a warm
    re-solve reports it as an [Error] instead. *)

type workspace
(** The scratch arrays of the solves over one {!columns} store. *)

type columns = private {
  nrows : int;
  col_idx : int array array;  (** row indices of each column, ascending *)
  col_val : float array array;  (** coefficients, parallel to [col_idx] *)
  col_weight : float array;
      (** [1 + ||a_j||^2] per column: the static norm pricing scales by *)
  row_start : int array;
      (** length [nrows + 1]: row [i]'s entries are
          [row_start.(i) .. row_start.(i + 1) - 1] of the two arrays below *)
  row_col : int array;  (** column of each entry, ascending within a row *)
  row_val : float array;  (** coefficients, parallel to [row_col] *)
  work : workspace;
}
(** The structural columns of a standard form [A x = b] with [nrows] rows,
    in the layout the kernel pivots over: column-wise, and the same
    nonzeros row-wise (the transpose, in compressed sparse rows). *)

val columns : nrows:int -> (int * float) array array -> columns
(** [columns ~nrows cols] with [cols.(j)] the sparse column of structural
    variable [j] as (row, coefficient) pairs in strictly increasing row
    order.
    @raise Invalid_argument on a row index out of range or rows out of
    order (a row given twice included). *)

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  mutable s_factor : Factor.memo option;
}
(** A basis snapshot: which column is basic in each row ([s_basis], entries
    [>= n] are artificial) and which nonbasic structural columns rest at
    their upper bound ([s_at_ub]). [s_factor] is a memo, empty when the
    snapshot is taken; the first {!resolve_with_basis} from it fills it with
    its refactorisation (once, never mutated afterwards) and later re-solves
    from the same snapshot reuse it, counted under
    [lp.simplex.factor_reuses] instead of [lp.simplex.refactorisations].
    Reused or recomputed, the factor is bit-identical, so clearing it
    ([{ snap with s_factor = None }]) changes no result. *)

type result =
  | Optimal of { value : float; x : float array; snapshot : snapshot }
      (** objective value, values of the [n] structural variables, and the
          final basis for later warm re-solves ({!resolve_with_basis}) *)
  | Infeasible
  | Unbounded

val solve_cols :
  ?max_iters:int ->
  ?deadline:float ->
  ?ubs:float option array ->
  cols:columns ->
  b:float array ->
  c:float array ->
  unit ->
  result
(** [solve_cols ~cols ~b ~c ()] with [b] length [cols.nrows] (all entries
    [>= 0]) and [c] one cost per column. [ubs.(j)], when present, is a
    strictly positive upper bound on structural variable [j] (default:
    none — the classic [x >= 0] form); fixed variables must be substituted
    out by the caller.
    [deadline] is an absolute {!Telemetry.Clock} time checked every few
    pivots.
    @raise Invalid_argument on shape mismatch, negative [b] entries or a
    non-positive upper bound.
    @raise Iteration_limit if [max_iters] (default [50_000]) pivots are
    exceeded.
    @raise Singular if a refactorisation meets a singular basis or phase 1
    reports itself unbounded.
    @raise Deadline_exceeded if [deadline] passes mid-solve. *)

val resolve_with_basis :
  ?max_iters:int ->
  ?deadline:float ->
  cols:columns ->
  b:float array ->
  c:float array ->
  ubs:float option array ->
  snapshot:snapshot ->
  unit ->
  (result, string) Stdlib.result
(** Warm re-solve: repair [snapshot] — taken from an optimal solve of a
    problem with the same columns and costs but different [b] / [ubs] (the
    rhs shift and span changes of a branch-and-bound child node) — with
    dual-simplex pivots, then polish with primal phase-2 pivots. Unlike
    {!solve_cols}, [b] entries may be negative and [ubs] entries may be
    zero (a variable fixed by branching); negative spans report
    [Infeasible] immediately. An [Ok Infeasible] from an exhausted dual
    ratio test is a genuine infeasibility certificate. The resolved point
    is cross-checked against the bound system and [A x = b] before being
    trusted; any accuracy loss, cycling, exhausted iteration budget or
    singular refactorisation leaves the warm basis stale, reported as
    [Error reason] so the caller can fall back to a cold primal solve.
    @raise Invalid_argument on shape mismatch.
    @raise Deadline_exceeded if [deadline] passes mid-solve. *)
