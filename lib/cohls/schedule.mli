(** Hybrid binding-and-scheduling results.

    A schedule assigns every operation a device and a start offset inside
    its layer's sub-schedule. Only the {e fixed part} of a layer has a
    length in minutes; layers containing indeterminate operations end when
    the slowest of them really finishes (the paper writes this [+I_k]), so
    total assay time is [sum of fixed makespans + sum of I_k]. *)

open Microfluidics

type entry = {
  op : int;
  device : int;
  start : int;  (** minutes from the start of the layer's sub-schedule *)
  min_duration : int;
  transport : int;  (** post-execution reagent transport; the device is
                        monopolised for [min_duration + transport] *)
  indeterminate : bool;
}

type layer_schedule = {
  layer_index : int;
  entries : entry list;  (** ascending start order *)
  fixed_makespan : int;  (** max over entries of start + min_duration + transport *)
}

val fixed_makespan_of : entry list -> int
(** The [fixed_makespan] of a layer with these entries. *)

type t = {
  assay : Assay.t;
  rule : Binding.rule;
  layering : Layering.t;
  chip : Chip.t;
  layers : layer_schedule array;
}

val binding : t -> int -> int option
(** Device id an operation is bound to. *)

val entry_of_op : t -> int -> entry option
val total_fixed_minutes : t -> int
val device_count : t -> int
val path_count : t -> int

type breakdown = {
  fixed_minutes : int;
  devices : int;
  paths : int;
  area : int;
  processing : int;
  weighted : int;
}

type weights = { w_time : int; w_area : int; w_processing : int; w_paths : int }

val default_weights : weights
(** [{w_time = 100; w_area = 150; w_processing = 150; w_paths = 200}] — the
    paper's user-adjustable [C_t, C_a, C_pr, C_p], calibrated so one minute
    of assay time trades against realistic device-integration and routing
    costs (a new ring must buy roughly half an hour; a new flow channel,
    two minutes). *)

val device_cost : weights -> Cost.t -> Device.t -> int
(** The weighted integration cost of one device,
    [w_area * area + w_processing * processing]: what a schedule pays to
    put the device on the chip. *)

val evaluate : ?weights:weights -> Cost.t -> t -> breakdown

val validate : t -> (unit, string) result
(** Full semantic check of a synthesis result:
    - every operation appears exactly once, inside its layer;
    - bindings satisfy the schedule's binding rule;
    - in-layer dependencies respect execution + transportation times (9);
    - no two operations overlap on a device, transport included (10)–(13);
    - indeterminate operations close their sub-schedule: everything starts
      no later than their minimum end (14), nothing else uses their device
      afterwards, and no two share a device;
    - the chip inventory contains every bound device and a path for every
      inter-device reagent transfer (21). *)

val pp : Format.formatter -> t -> unit
