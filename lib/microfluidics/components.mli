(** Microfluidic components (paper §2.1).

    Components split into {e containers} — which cost exclusive chip area —
    and {e accessories} — functionally specialised parts (pumps, heating
    pads, optical systems, sieve valves, cell traps) that integrate into a
    container at processing cost but no area cost. *)

module Capacity : sig
  type t = Large | Medium | Small | Tiny

  val all : t list
  val compare : t -> t -> int
  (** [Large > Medium > Small > Tiny]. *)

  val equal : t -> t -> bool
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  val volume_range : t -> float * float
  (** Nominal reagent volume range in nanolitres:
      tiny [0.5, 5), small [5, 25), medium [25, 100), large [100, 500].
      Single-cell chambers are sub-5 nl (the paper's references [12], [17]);
      large flow-reversal mixes run to hundreds of nl (reference [10]). *)

  val of_volume : float -> t option
  (** Smallest class whose range contains the volume; [None] when it
      exceeds the largest class or is non-positive. *)
end

module Container : sig
  type t =
    | Ring  (** closed-loop chamber enabling circulation flow; mixing *)
    | Chamber  (** channel segment between two valves *)

  val all : t list
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  val allowed_capacities : t -> Capacity.t list
  (** Rings come in large/medium/small, chambers in medium/small/tiny
      (paper constraints (3)–(4)). *)

  val capacity_allowed : t -> Capacity.t -> bool
end

module Accessory : sig
  type t =
    | Pump  (** valve group providing peristaltic pressure *)
    | Heating_pad
    | Optical_system  (** light source + detector *)
    | Sieve_valve  (** blocks large particles, passes fluid *)
    | Cell_trap  (** passive single-cell capture structure *)

  val all : t list
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val short_code : t -> string
  (** The paper's one-letter index: p, h, o, s, c. *)

  val pp : Format.formatter -> t -> unit

  module Set : Set.S with type elt = t

  val set_of_list : t list -> Set.t
end
