(** Mixed-integer linear program builder.

    A model owns a growing set of variables (continuous, integer or binary,
    each with a finite lower bound and an optional upper bound), a list of
    linear constraints and one objective. It is the interface between the
    synthesis front-end ({!Cohls.Ilp_model}) and the solver back-ends
    ({!Simplex}, {!Branch_bound}). The solvers only read a model:
    {!Presolve} returns its reductions as a new model built with
    {!reduce}. *)

type sense = Le | Ge | Eq

type var_kind = Continuous | Integer | Binary

type t

type var = int
(** Dense variable ids, as used by {!Linexpr}. *)

val create : ?name:string -> unit -> t

val add_var :
  t ->
  ?lb:Numeric.Rat.t ->
  ?ub:Numeric.Rat.t ->
  ?kind:var_kind ->
  string ->
  var
(** Defaults: [lb = 0], [ub] absent (+∞), [kind = Continuous]. A [Binary]
    variable forces bounds [0, 1] and integrality. *)

val add_constr : t -> ?name:string -> Linexpr.t -> sense -> Linexpr.t -> unit
(** [add_constr m lhs sense rhs]; constants on both sides are folded. *)

val set_objective : t -> [ `Minimize | `Maximize ] -> Linexpr.t -> unit
(** Default objective is [Minimize 0]. *)

val var_count : t -> int
val constr_count : t -> int
val var_name : t -> var -> string
val var_kind : t -> var -> var_kind
val var_lb : t -> var -> Numeric.Rat.t
val var_ub : t -> var -> Numeric.Rat.t option
val is_integer_var : t -> var -> bool

val objective : t -> [ `Minimize | `Maximize ] * Linexpr.t

val constraints : t -> (string * Linexpr.t * sense * Numeric.Rat.t) list
(** Normalised to [expr sense rhs-constant] with the expression carrying no
    constant part. *)

val reduce :
  t ->
  lbs:Numeric.Rat.t array ->
  ubs:Numeric.Rat.t option array ->
  (string * Linexpr.t * sense * Numeric.Rat.t) list ->
  t
(** [reduce m ~lbs ~ubs rows] is a new model with [m]'s name, variables
    (names and kinds) and objective, the bounds [lbs.(v)]/[ubs.(v)] and
    exactly [rows], in order, in the form {!constraints} returns. [m] is
    left untouched. {!Presolve} builds its result with it; the rows must
    use only [m]'s variables.
    @raise Invalid_argument if [lbs] or [ubs] does not hold one entry per
    variable. *)

val check_feasible :
  t -> ?tol:float -> (var -> float) -> (string * float) list
(** Violated constraints/bounds for a candidate assignment ([name, amount]);
    empty means feasible within [tol] (default 1e-6). Integrality of integer
    variables is checked too. *)

val check_feasible_exact :
  t -> (var -> Numeric.Rat.t) -> (string * Numeric.Rat.t) list
(** {!check_feasible} in exact rational arithmetic, with no tolerance: every
    row, bound and integrality requirement must hold exactly. *)

val eval_objective : t -> (var -> float) -> float
(** Objective value of an assignment, sign-adjusted so that *smaller is
    better* regardless of min/max sense is NOT applied: returns the natural
    objective value. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
(** CPLEX-LP-style textual dump, for debugging and golden tests. *)
