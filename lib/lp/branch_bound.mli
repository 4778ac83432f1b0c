(** Branch-and-bound ILP solver over the floating-point simplex, for
    pure-integer models.

    A wave search (below) that prunes a node whose bound cannot beat the
    incumbent; branching on the most fractional integer variable, the child
    nearer the relaxation value ahead of its sibling. Supports warm-start
    incumbents (used by the synthesis flow, which seeds the search with a
    greedy list schedule), wall-clock time limits and node limits, making
    it an *anytime* solver like the paper's Gurobi runs.

    The relaxations are floats; what the search accepts is exact. A
    relaxation integral within [1e-6], and the warm start, is rounded to
    an integer point, which becomes an incumbent only if it satisfies
    every row, bound and integrality requirement of the model handed to
    {!solve}, never the presolved one, in rational arithmetic
    ({!Model.check_feasible_exact}). Incumbents compare by the exact
    objective of that point, so a result's [objective] is the objective of
    its [values]. A rounding that fails the check is branched on: the most
    fractional variable whose value lies strictly inside its node bounds,
    however small its fractionality; a node with no such variable (its
    point already integral) is given up, and the search no longer proves
    optimality. A caller needs no certificate of its own.

    A relaxation that exceeds the kernel's pivot budget
    ({!Tableau.Iteration_limit}) or meets a singular basis
    ({!Tableau.Singular}) abandons only its own node: the search continues
    without a proof of optimality, the node's bound stays in the gap, and
    [lp.simplex.iteration_aborts] or [lp.simplex.singular_aborts] counts
    it. A root abandoned this way leaves no bound, so without a warm start
    the status is [Unknown].

    The presolved model is translated once, at the root, into the
    {!Simplex.form} of the search. A node is its branchings [(var, lb, ub)]
    against it, a list sharing its tail with its parent's, and the
    {!Simplex.warm} value of its parent's relaxation (none at the root;
    both children share it). One {!Tableau.solve} call per node repairs
    the branch from that basis by the dual simplex, falling back within the
    call to a cold solve of the node on the same form when the basis goes
    stale ([lp.bb.warm_hits] / [lp.bb.warm_fallbacks]).

    The tree is searched in waves on the calling domain: one global stack
    of open nodes, popped [8] at a time; the wave's relaxations are solved
    in stack order, and then every update — incumbent, pruning, child order
    — is applied in the same order. The explored tree therefore depends
    only on the node budget: with a [node_limit] and no [time_limit],
    status, objective, values and node count are byte-identical on any
    machine. A [time_limit] still stops the search, at a machine-dependent
    point: the search ends before a node when the time left cannot fit four
    relaxations of its recent size (at least 50 ms), so the kernel deadline
    ([lp.simplex.deadline_aborts]) only fires on a runaway relaxation.
    Equal-objective incumbents are tie-broken lexicographically.

    Pruning uses the objective's own step, read off the model: when every
    objective coefficient is an integer (every variable is), a node whose
    bound is within the gcd [g] of those coefficients of the
    incumbent holds no strictly better point (the paper's layer objective
    has [g = 50] under the default weights, more where terms are absent).
    Any other objective prunes at a [1e-9] margin. *)

type status =
  | Optimal  (** search space exhausted; incumbent is proved optimal *)
  | Feasible  (** stopped at a limit with an incumbent in hand *)
  | Infeasible
  | Unbounded
  | Unknown  (** stopped at a limit with no incumbent *)

type result = {
  status : status;
  objective : float option;
      (** natural objective value of [values], computed exactly and then
          rounded to a float *)
  values : float array option;  (** incumbent, indexed by model variable *)
  nodes : int;
  elapsed : float;
  gap : float option;
      (** relative optimality gap when known; [None] without an incumbent
          or when the search stopped before the root relaxation finished
          (no bound exists then) *)
}

type options = {
  time_limit : float option;  (** seconds of wall-clock *)
  node_limit : int option;
  presolve : bool;
      (** ignored: {!solve} always runs {!Presolve} at the root (span
          [lp.presolve.run]), which stops at the search deadline like the
          tree does. The field remains only for callers that still set it *)
  domains : int;
      (** ignored: the search always runs on the calling domain. The field
          remains only for callers that still set it *)
  deterministic : bool;
      (** ignored: the search is always the deterministic wave search. The
          field remains only for callers that still set it *)
}
(** The integrality tolerance is a constant [1e-6]. *)

val default_options : options

val solve : ?options:options -> ?warm_start:float array -> Model.t -> result
(** The model is never mutated. Every incumbent, the warm start included,
    is checked against it as given; the search runs on the model
    {!Presolve.run} returns, translated into one {!Simplex.form}, and each
    node hands its branchings to {!Simplex.solve}.
    @raise Invalid_argument on a model with a [Continuous] variable, or
    unless a [warm_start] holds one value per model variable. *)
