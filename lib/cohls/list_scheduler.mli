(** Greedy priority-list scheduler and binder for one layer: it solves the
    same {!Layer_problem.t} as the §4 ILP of {!Ilp_model}.

    Serves two roles: (a) the scalable engine for large layers — the paper's
    monolithic per-layer ILP is only practical on small instances without a
    commercial solver — and (b) the warm-start incumbent handed to
    {!Layer_solver}'s branch-and-bound.

    Determinate operations are placed in dependency order. For each one the
    candidates are every compatible device plus — while the device cap
    allows — a brand-new minimal device; the winner minimises the same
    weighted trade the ILP objective makes:
    [w_time * start + integration cost of a new device + w_paths if off the
    parent's device]. Indeterminate operations are placed last on distinct
    devices and pushed late enough that every other operation starts before
    their minimum end (constraint (14)). *)

open Microfluidics

exception No_device of int
(** Raised with the operation id when no compatible device exists and the
    device cap is exhausted. *)

type outcome = {
  entries : Schedule.entry list;  (** ascending start *)
  created : Device.t list;  (** freshly instantiated devices *)
}

val schedule_layer : Layer_problem.t -> fresh_id:(unit -> int) -> outcome
(** Schedules the operations of the problem's [layer]. [bound_before]
    devices price cross-layer transfers as routing effort, and
    pairs the chip has [routed] are free to reuse. [fresh_id] allocates
    device ids. *)
