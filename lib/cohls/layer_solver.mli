(** Per-layer solving engine selection.

    [Heuristic] runs the greedy list scheduler only. [Ilp] additionally
    builds the paper's §4 model over the inherited devices plus a few free
    slots, warm-starts branch-and-bound with the greedy solution, and keeps
    whichever is better — so it degrades gracefully into the heuristic when
    the time budget is too small for the exact search (the anytime behaviour
    the paper gets from Gurobi). The ILP schedule wins only with an exact
    certificate: its values satisfy every row, bound and integrality
    requirement of the model as built (before presolve) in rational
    arithmetic, and its exactly recomputed objective is strictly better than
    the heuristic's. A schedule that fails the certificate is counted under
    [layer.ilp_uncertified] and the heuristic schedule is kept; so is it
    when the solver fails outright ([layer.ilp_failed]). *)

open Microfluidics

type engine =
  | Heuristic
  | Ilp of {
      options : Lp.Branch_bound.options;
          (** passed to {!Lp.Branch_bound.solve} as given; the search reads
              the objective's pruning step (50 under the default weights)
              off the layer model itself *)
      extra_free_slots : int;
          (** free slots beyond the ones the heuristic needed *)
    }

val default_ilp : engine
(** 10-second time limit, one extra free slot. *)

type input = {
  ops : Operation.t array;
  graph : Flowgraph.Digraph.t;
  layer : Layering.layer;
  layer_of_op : int array;
  bound_before : int -> int option;
  available : Device.t list;
  rule : Binding.rule;
  max_devices : int;
  transport : int -> int;
  cost : Cost.t;
  weights : Schedule.weights;
  existing_paths : (int * int) list;
  device_penalty : int -> int;
      (** see {!List_scheduler.config}; only affects the heuristic engine *)
}

type output = {
  entries : Schedule.entry list;
  fixed_makespan : int;
  created : Device.t list;
  used_ilp : bool;  (** the ILP improved on the heuristic incumbent *)
}

val solve : engine -> input -> fresh_id:(unit -> int) -> output
(** @raise List_scheduler.No_device when the device cap is too small. *)
