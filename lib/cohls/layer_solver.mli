(** Per-layer solving engine selection: both engines solve the same
    {!Layer_problem.t}.

    [Heuristic] runs the greedy list scheduler only. [Ilp] additionally
    builds the paper's §4 model over {!Ilp_model.slots} — the inherited
    devices, the greedy schedule's created devices under their own ids and
    a few extra free slots — warm-starts branch-and-bound with the greedy
    solution, and keeps whichever is better. So it degrades gracefully into
    the heuristic when the time budget is too small for the exact search
    (the anytime behaviour the paper gets from Gurobi). The ILP schedule wins
    when its exactly recomputed objective is strictly better than the
    heuristic's. It needs no certificate here: {!Lp.Branch_bound.solve}
    returns only points that satisfy, in rational arithmetic, every row,
    bound and integrality requirement of the model it is given, which is
    the model as built (never presolved: presolve returns a new model)
    plus its cutoff row (objective no worse than the heuristic's). *)

type engine =
  | Heuristic
  | Ilp of {
      options : Lp.Branch_bound.options;
          (** passed to {!Lp.Branch_bound.solve} as given; the search reads
              the objective's pruning step (50 under the default weights)
              off the layer model itself *)
      extra_free_slots : int;
          (** free slots beyond the heuristic's created devices *)
    }

val solve :
  engine -> Layer_problem.t -> fresh_id:(unit -> int) -> List_scheduler.outcome
(** @raise List_scheduler.No_device when the device cap is too small. *)
