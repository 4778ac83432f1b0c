(** The fully static strawman the paper's hybrid scheduling replaces.

    Classical synthesis puts every operation in a fixed time slot, treating
    indeterminate durations as if they were their minimum. This module
    builds that schedule (one layer, indeterminacy ignored) and quantifies
    its fragility: how many fixed slots break when an indeterminate
    operation overruns its minimum. A hybrid schedule's exposure inside a
    layer is zero by construction (constraint (14)); overruns only shift
    whole layer boundaries, which the cyber-physical controller handles. *)

open Microfluidics

type exposure = {
  exposed_slots : int;
      (** operations whose start lies after some indeterminate operation's
          minimum end — their slots are invalid as soon as that operation
          overruns *)
  total_slots : int;
  worst_chain : int;
      (** the largest number of slots invalidated by one single
          indeterminate operation *)
}

val static_schedule :
  ?config:Synthesis.config -> Assay.t -> Schedule.t
(** Synthesise with indeterminacy erased (every indeterminate duration
    becomes fixed at its minimum): the one-layer fixed-slot schedule a
    conventional flow would produce. The result deliberately fails
    {!Schedule.validate} on assays with indeterminate operations whenever a
    fixed slot sits after an indeterminate minimum end — that failure is
    the point. *)

val compare_hybrid : ?config:Synthesis.config -> Assay.t -> exposure * exposure
(** [(static, hybrid)] exposure for the same assay: the static strawman vs
    {!Synthesis.run}'s hybrid schedule. *)
