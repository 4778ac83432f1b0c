(** Top-level synthesis driver: layering → per-layer solving with device
    inheritance → progressive re-synthesis with transportation refinement
    (paper §3–§4).

    The first pass inherits devices forward only (layer [i] sees everything
    integrated for layers [< i]). Re-synthesis passes make the whole
    previous chip visible to every layer; a layer pays the integration cost
    again on first use of its own previous devices [D'_i], so it
    re-justifies them against devices other layers account for — the
    cost-transparent realisation of §3.2's [D \ D'_i] inheritance (see
    DESIGN.md). Every operation's transportation time is re-estimated from
    the previous pass's path usage (§4.1). A pass is accepted only when the
    weighted objective improves; iteration stops when the execution-time
    gain becomes marginal or the iteration cap is hit. *)

open Microfluidics

type config = {
  rule : Binding.rule;
  threshold : int;  (** max indeterminate ops per layer *)
  max_devices : int;  (** |D| *)
  engine : Layer_solver.engine;
  weights : Schedule.weights;
  max_iterations : int;
  refine_by_layout : bool;
      (** price paths by grid-layout Manhattan length instead of usage rank *)
}
(** Every run prices devices with {!Cost.default}, estimates
    transportation with {!Transport.term}'s progression (2..10 minutes in
    5 terms), starts from {!initial_transport} and keeps iterating while
    the relative execution-time gain exceeds 2%. *)

val initial_transport : int
(** The user constant t of §4.1, the first pass's transportation time per
    operation: 10, the progression's slowest term, i.e. a conservative
    first estimate. *)

val default_config : config
(** Component-oriented rule, threshold 10, 25 devices, heuristic engine,
    default weights, at most 5 iterations. *)

type iteration = {
  iteration_index : int;
  schedule : Schedule.t;
  breakdown : Schedule.breakdown;
}

type result = {
  config : config;
  layering : Layering.t;
  iterations : iteration list;  (** chronological *)
  final : Schedule.t;
  final_breakdown : Schedule.breakdown;
  runtime_seconds : float;
}

val run : ?config:config -> Assay.t -> result
(** @raise List_scheduler.No_device when [max_devices] cannot accommodate
    the assay.
    @raise Invalid_argument on an invalid assay. *)

val run_with_pool :
  ?config:config -> ?first_fresh_id:int -> pool:Device.t list -> Assay.t -> result
(** Like {!run}, but every layer of the first pass may bind to the [pool]
    devices at no integration cost — they are already on the chip. Used by
    {!Recovery} to re-bind the surviving devices of a partially-executed
    assay. Freshly-created device ids start at
    [max (first_fresh_id, 1 + max pool id)] (default [first_fresh_id = 0])
    so they never collide with pool ids nor with ids the caller has
    retired. [|D|] ([max_devices]) is one budget for a whole pass: a layer
    may create a device only while the pool plus every device the pass has
    created so far number fewer than [max_devices], so a pool at or above
    the cap allows no new device. [run] is [run_with_pool ~pool:[]].

    Under an [Ilp] engine the same config also runs with the [Heuristic]
    engine (on the same layering), and the heuristic run's iterations are
    returned instead only when its final weighted objective is strictly
    lower, counted under [synthesis.heuristic_kept]: an ILP run never ends
    worse than the heuristic one, and a tie keeps the ILP run. That run's
    passes count under [synthesis.heuristic_guard.passes] only, so
    [synthesis.passes], [synthesis.passes_accepted],
    [synthesis.passes_rejected] and [layer.solves] describe the ILP run
    alone; its spans nest under [synthesis.heuristic_guard]. [config] is
    returned as given either way.
    @raise List_scheduler.No_device when pool plus cap cannot accommodate
    the assay.
    @raise Invalid_argument when [pool] repeats a device id. *)

val improvement_history : result -> (int * float) list
(** Per iteration (>= 1): relative execution-time improvement over the
    previous one — the numbers of the paper's Table 3. *)
