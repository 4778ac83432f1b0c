(** Root-node presolve, iterated to a fixed point.

    Presolve reads the model's bounds and rows and never writes the model:
    each round runs three passes over its own copies of them, and the
    result is a new model with the reduced bounds and rows
    ({!Model.reduce}). The passes are:

    - {b row pass}: constant rows are checked and dropped, singleton rows
      become variable bounds, rows whose activity range cannot violate them
      are removed, and coefficients of binary variables in inequality rows
      are tightened (generic big-M reduction — the integer feasible set is
      unchanged but the LP relaxation gets strictly tighter);
    - {b bound propagation}: the minimum/maximum activity implied by current
      variable bounds yields tighter implied bounds per variable, with
      integer bounds rounded inwards;
    - {b duality fixing}: a variable whose movement towards one finite bound
      can never violate a constraint nor worsen the objective is fixed
      there (dominated column; preserves the optimal value, possibly not
      every optimal solution).

    All reductions remain valid below the root: branch-and-bound only
    shrinks bounds, which only shrinks activity ranges, and it never
    branches on a fixed variable. Big-M scheduling models benefit
    substantially: fixed binaries collapse whole disjunctions before the
    search starts. Progress is reported on the [lp.presolve.*] telemetry
    counters ([rows_removed], [singleton_rows], [coeffs_tightened],
    [cols_fixed], [tightenings], [rounds]). *)

type outcome =
  | Reduced of { model : Model.t; changes : int }
      (** [model]: the input's variables and objective with the tightened
          bounds and the remaining (possibly rewritten) rows, in their
          original order; [changes]: the number of changes applied
          (bounds, rows, coefficients), [0] when [model] equals the
          input *)
  | Proved_infeasible

val run : ?deadline:float -> Model.t -> outcome
(** The input model is left untouched. At most 10 rounds. [deadline] is an
    absolute {!Telemetry.Clock} time, read every 256 rows visited: once it
    has passed, the rows not yet visited are kept unchanged, no further
    pass or round runs, [lp.presolve.deadline_stops] is bumped and the
    result is [Reduced] — every reduction made before the stop is valid on
    its own. *)
