(** Operation-to-device binding rules.

    [Component_oriented] is the paper's contribution: an operation fits any
    device whose container/capacity match and whose accessories are a
    superset of the requirement, so devices are shared across operation
    "types". [Exact_signature] is the modified conventional method used as
    the baseline in §5: operations and devices are classified by their
    component requirements, and binding demands an exact class match. *)

open Microfluidics

type rule = Component_oriented | Exact_signature

val rule_name : rule -> string

val op_fits : rule -> Operation.t -> Device.t -> bool

val resolved_container : Operation.t -> Components.Container.t
(** The container actually instantiated for an unspecified requirement:
    the cheapest compatible one (a chamber unless the capacity class forces
    a ring). *)

val resolved_capacity : Operation.t -> Components.Capacity.t
(** Specified class, or the cheapest class allowed by the resolved
    container. *)

val minimal_device : Operation.t -> id:int -> Device.t
(** Cheapest device able to execute the operation; what a synthesiser
    instantiates when no existing device fits. *)
