(** Chip inventories: instantiated devices plus inter-device flow paths.

    A transportation path must exist between two devices whenever a child
    operation bound to one inherits reagents from a parent bound to the
    other (paper constraint (21)); paths are undirected for counting
    purposes and carry a usage count that drives the layout-aware
    transportation-time refinement (§4.1). *)

type t

val create : unit -> t

val add_device : t -> Device.t -> unit
(** Devices are keyed by [id]; re-adding the same id is an error. *)

val device_count : t -> int
val devices : t -> Device.t list
(** Ascending id order. *)

val find_device : t -> int -> Device.t option

val note_transport : t -> src:int -> dst:int -> unit
(** Registers one reagent transfer over the (unordered) device pair,
    creating the path on first use. Transfers within one device are
    ignored. @raise Invalid_argument on unknown device ids. *)

val path_count : t -> int

val has_path : t -> int -> int -> bool
(** Whether the (unordered) device pair has a path. *)

val path_usage : t -> ((int * int) * int) list
(** Unordered pairs [(lo, hi)] with their usage counts, most used first. *)

val total_area : Cost.t -> t -> int
val total_processing : Cost.t -> t -> int

val pp : Format.formatter -> t -> unit
