(** General devices (paper §2.2): one container plus a set of accessories.

    A conventional rotary mixer is [ring + {pump}]; the sieve-valve
    flow-channel segment of the kinase assay is [chamber + {sieve-valve}];
    the combined mixer/cell-separation module of Fig. 1 is
    [ring + {pump, cell-trap}]. *)

open Components

type t = {
  id : int;
  container : Container.t;
  capacity : Capacity.t;
  accessories : Accessory.Set.t;
}

val make :
  id:int ->
  container:Container.t ->
  capacity:Capacity.t ->
  accessories:Accessory.t list ->
  t
(** @raise Invalid_argument when the capacity class is not allowed for the
    container type (paper constraints (3)–(4)). *)

val compare : t -> t -> int
val signature : t -> string
(** Canonical text form, e.g. ["ring/medium{p}"] — used by the conventional
    baseline's exact-signature binding rule. *)

val pp : Format.formatter -> t -> unit
