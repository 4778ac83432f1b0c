(** Sparse revised two-phase primal simplex on bounded standard-form
    problems

    {[ minimise  c . x   subject to   A x = b,  0 <= x <= u ]}

    with [b >= 0] (the caller flips row signs beforehand) and [u >= 0] per
    column, [infinity] for none and [0] for a fixed variable, in IEEE
    doubles with tolerance [1e-9]. The whole form is one {!columns} store,
    built and checked once and shared read-only by every solve over it:
    the constraint matrix sparse, column-wise and row-wise, and [b], [c]
    and [u]. The basis inverse is a
    {!Factor}, so an iteration costs the nonzeros it touches rather than
    [m * n]. Upper bounds are enforced inside the ratio test (a step may
    end in a bound flip with no basis change) instead of as explicit rows.
    One entry point, {!solve}, is given only the columns a branch-and-bound
    node changes. An [Optimal] result carries the {!snapshot} of its final
    basis, and a dual-simplex phase re-solves another node of the form
    from it, falling back within the same call to a cold solve when that
    basis proves stale. The dual phase picks its leaving row by dual
    steepest edge, with one weight per basis row reset to 1 at the start
    of every warm re-solve (a snapshot carries none); a dual iteration
    costs one BTRAN (the pivot row) and two FTRANs (the entering column,
    and the pivot row of [B^-1] for the weight update), plus one FTRAN for
    any bound flips. Its other per-pivot work costs the rows it touches:
    the leaving row comes from a list of candidate infeasible rows, seeded
    by one sweep of x_B when the phase starts and after each
    refactorisation and joined by every row a pivot or a flip moves, and
    one sweep over the entering column updates the weights and x_B and
    collects the eta. This is the kernel under {!Simplex}.

    Each solve counts its BTRANs and FTRANs ([lp.simplex.btrans],
    [lp.simplex.ftrans]; a refactorisation's own column transforms are not
    counted) and its phase-1 pivots ([lp.simplex.phase1_pivots]). Every
    refactorisation records the nonzeros of the file it built
    ([lp.simplex.factor_nnz]) and its bump columns
    ([lp.simplex.bump_cols]), and the dual phase sums the nonzeros of each
    row of [B^-1] it prices and of the pivot row over its candidate columns
    ([lp.simplex.rho_nnz], [lp.simplex.pivot_row_nnz]) and the rows its
    leaving-row choice reads ([lp.simplex.chuzr_rows]: [m] per seeding
    sweep, then the list's length per choice).

    {b One solve at a time per store.} Every scratch array a solve needs,
    a node's rhs and spans included, lives in a workspace
    owned by its {!columns} store, allocated once with it, so only a
    solve's results and its eta records are allocated per solve. Two
    solves over the same store must therefore not run at the same time (on
    two domains, or one inside another); solves over different stores are
    independent. A solve writes whatever it reads in the workspace first,
    so it never reads what an earlier one left there, including one
    aborted by an exception. *)

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
    re-solve takes it for a stale basis and solves the node cold instead. *)

type workspace
(** The scratch arrays of the solves over one {!columns} store. *)

type columns = private {
  nrows : int;
  col_idx : int array array;  (** row indices of each column, ascending *)
  col_val : float array array;  (** coefficients, parallel to [col_idx] *)
  col_weight : float array;
      (** [1 + ||a_j||^2] per column: the static norm primal pricing scales
          by *)
  row_start : int array;
      (** length [nrows + 1]: row [i]'s entries are
          [row_start.(i) .. row_start.(i + 1) - 1] of the two arrays below *)
  row_col : int array;  (** column of each entry, ascending within a row *)
  row_val : float array;  (** coefficients, parallel to [row_col] *)
  b : float array;  (** the rhs, one entry per row, all [>= 0] *)
  c : float array;  (** one cost per column *)
  ubs : float array;
      (** one span per column: an upper bound [>= 0], [infinity] for none.
          A zero-span column (a fixed variable) never enters the basis: the
          crash basis, pricing, drive-out and the dual ratio test all pass
          it over. *)
  work : workspace;
}
(** A standard form [A x = b, 0 <= x <= ubs] minimising [c . x], with
    the structural columns in the layout the kernel pivots over:
    column-wise, and the same nonzeros row-wise (the transpose, in
    compressed sparse rows). *)

val columns :
  b:float array ->
  c:float array ->
  ubs:float array ->
  (int * float) array array ->
  columns
(** [columns ~b ~c ~ubs cols] with [cols.(j)] the sparse column of
    structural variable [j] as (row, coefficient) pairs in strictly
    increasing row order, over [Array.length b] rows. The form keeps [b],
    [c] and [ubs] as given, so the caller must not write them afterwards.
    A fixed variable is a column of span [0].
    @raise Invalid_argument on a length mismatch, a row index out of range
    or rows out of order (a row given twice included), a negative [b]
    entry or a negative upper bound. *)

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  mutable s_factor : Factor.memo option;
}
(** A basis snapshot: which column is basic in each row ([s_basis], entries
    [>= n] are artificial) and which nonbasic structural columns rest at
    their upper bound ([s_at_ub]). [s_factor] is a memo, empty when the
    snapshot is taken; the first warm {!solve} from it fills it with
    its refactorisation (once, never mutated afterwards) and later re-solves
    from the same snapshot reuse it, counted under
    [lp.simplex.factor_reuses] instead of [lp.simplex.refactorisations].
    Reused or recomputed, the factor is bit-identical, so clearing it
    ([{ snap with s_factor = None }]) changes no result. *)

type result =
  | Optimal of { value : float; x : float array; snapshot : snapshot }
      (** objective value, values of the [n] structural variables, and the
          final basis for later warm re-solves ({!solve} [~snapshot]) *)
  | Infeasible
  | Unbounded

val solve :
  ?max_iters:int ->
  ?deadline:float ->
  ?snapshot:snapshot ->
  ?changes:(int * float * float) list ->
  columns ->
  result
(** [solve cols] solves the branch-and-bound node of the form that
    [changes] (default: none) describes. [changes] lists the node's changed
    columns as [(j, lo, span)], [j] strictly ascending: column [j] is
    shifted up by [lo] and bounded by [span] instead of the form's, so the
    node's rhs is [b - A lo]. A span may be zero (a fixed variable); a
    negative one makes the node [Infeasible] before any pivot. The result
    is in the form's columns: each [lo] is added back to [x] and its cost
    to [value]. [deadline] is an absolute {!Telemetry.Clock} time checked
    every few pivots; [max_iters] (default [50_000]) is the pivot budget.

    Without [snapshot] the solve is cold: two phases from a crash basis,
    a row whose node rhs is negative getting the artificial [-e_i], so it
    walks the pivots of a translation of the node with that row negated.

    With [snapshot], taken from an optimal solve of the same form, the
    solve is warm: it repairs the snapshot's basis with dual-simplex
    pivots, then polishes with primal phase-2 pivots, under a budget of at
    most [max 100 (m / 4)] pivots. An [Infeasible] from an exhausted dual
    ratio test is a genuine infeasibility certificate. The resolved point
    is cross-checked against the bound system and the node's [A x = b]
    before being trusted. A stale basis (a corrupt snapshot, cycling,
    numerical drift, lost accuracy, a singular refactorisation or an
    exhausted polish budget) falls back, within the same call, to the cold
    solve of the node. Each warm solve counts one of [lp.bb.warm_hits] or
    [lp.bb.warm_fallbacks].
    @raise Invalid_argument on a snapshot of another shape or [changes]
    out of order or range.
    @raise Iteration_limit if a cold solve exceeds [max_iters] pivots.
    @raise Singular if a cold solve's refactorisation meets a singular
    basis or its phase 1 reports itself unbounded.
    @raise Deadline_exceeded if [deadline] passes mid-solve. *)
