(** One layer's binding-and-scheduling problem (paper §4): the input shared
    by the greedy {!List_scheduler}, the ILP of {!Ilp_model} and the
    {!Layer_solver} that runs them. *)

open Microfluidics

type t = {
  ops : Operation.t array;  (** the whole assay's operations *)
  graph : Flowgraph.Digraph.t;  (** the whole assay's dependency graph *)
  layer : Layering.layer;  (** only these operations are scheduled *)
  layer_of_op : int array;
  bound_before : int -> int option;
      (** device of an operation from an earlier layer (for cross-layer
          transportation paths) *)
  available : Device.t list;
      (** devices inherited under §3.2; their integration cost is sunk *)
  rule : Binding.rule;
  max_devices : int;  (** the |D| cap on [available] plus created devices *)
  transport : int -> int;  (** each operation's transportation time (§4.1) *)
  cost : Cost.t;
  weights : Schedule.weights;
  routed : int -> int -> bool;
      (** whether an (unordered) device pair already has a path on the
          chip, routed by an earlier layer of the pass; reusing it is free
          (constraint (21)) *)
  device_penalty : int -> int;
      (** extra weighted score charged on the {e first} use of a device in
          the current pass — the re-synthesis driver prices a layer's own
          previous-iteration devices (the [D'_i] of §3.2) at their
          integration cost so the layer re-justifies them against devices
          other layers pay for; [fun _ -> 0] otherwise. Only the greedy
          engine reads it. *)
}
