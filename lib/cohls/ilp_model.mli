(** Per-layer ILP construction (paper §4, constraints (1)–(21)).

    One model solves a {!Layer_problem.t} — the same input the greedy
    {!List_scheduler} takes — against a set of device {e slots} from
    {!slots}: inherited devices arrive as [Fixed] slots (their configuration
    is given and their integration cost is sunk, per the §3.2 inheritance
    rule); [Free] slots may be configured by the model, paying area and
    processing cost. The greedy schedule's created devices are free slots
    under their own ids, so it warm-starts the model without translation.

    Faithfulness notes (documented deviations, see DESIGN.md):
    - constraints (1)–(4) are reformulated with one binary per
      (container, capacity) pair, which is required to price a medium ring
      differently from a medium chamber in (16)–(17) — the two formulations
      are otherwise equivalent, and unused slots are not forced to pick a
      container;
    - (15) includes the transportation time in the makespan, matching the
      schedule validator (the device stays monopolised during transport, as
      (10)–(11) already assume);
    - indeterminate operations additionally get "last on their device" and
      "pairwise distinct devices" constraints: (10)–(14) alone would allow a
      determinate operation to start exactly at an indeterminate one's
      minimum end on the same device, which breaks when it overruns. *)

open Microfluidics

type slot = Fixed of Device.t | Free of { id : int }
(** [Free {id}] pre-allocates the global device id the slot will take if
    used. *)

type built
(** The constructed model plus the variable maps needed for extraction. *)

val model : built -> Lp.Model.t
val horizon : built -> int

val slots :
  Layer_problem.t ->
  List_scheduler.outcome ->
  extra_free_slots:int ->
  fresh_id:(unit -> int) ->
  slot array
(** The slots a layer model is built over, in one device-id space with the
    greedy schedule [heur]: the problem's [available] devices as [Fixed]
    slots, then each device [heur] created as a [Free] slot under its own
    id, ordered by the layer position of its earliest operation (then id) —
    the canonical order {!build}'s pruning assumes — then up to
    [extra_free_slots] slots with [fresh_id] ids, as far as [max_devices]
    allows. *)

val build : ?prune:bool -> Layer_problem.t -> slots:slot array -> built
(** Constructs the layer model over [slots] (usually from {!slots}). The
    model reads neither the problem's [available] and [max_devices] (they
    are already in [slots]) nor its [device_penalty]. With [prune] (the
    default) the variable and constraint grid is cut down before the
    solver ever sees it, preserving the optimal objective value:

    - ASAP/ALAP start windows from the layer's dependency DAG become
      variable bounds (implied by the dependency and makespan constraints);
    - conflict pairs whose windows already force an ordering are dropped,
      and the surviving disjunctions get the tightest pair-specific big-M
      instead of the global one;
    - free slots, being interchangeable, are canonically ordered: op number
      [i] (in layer order) may only use free slots of ordinal [<= i], and a
      free slot may only be used if its predecessor is.

    [prune:false] reproduces the full §4 grid (used by the equivalence
    property tests). Reductions are reported on the [ilp.model.*] counters.
    @raise Invalid_argument when an operation of the layer fits no slot
    under the given rule (the caller should add free slots). *)

val warm_start : built -> List_scheduler.outcome -> float array
(** The greedy schedule [heur] as values of the model's variables, for a
    model built over [slots problem heur]: each entry sets its op's start
    and its device's binding, and each created device configures its own
    free slot exactly as the heuristic built it.
    @raise Invalid_argument when [heur] uses a device, operation or
    binding the model lacks. *)

val extract :
  built -> values:float array -> Schedule.entry list * Device.t list
(** Entries (ascending start) and the devices instantiated in free slots.
    @raise Failure on a malformed solution vector. *)
