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

  (** Sets of accessories, one bit per accessory: subset, union and
      equality are single integer operations. [elements], [fold] and
      [iter] visit members in declaration order (the order of [all]), and
      [compare] orders sets as [Stdlib.Set.Make] does. *)
  module Set : sig
    type elt = t
    type t

    val empty : t
    val is_empty : t -> bool
    val mem : elt -> t -> bool
    val add : elt -> t -> t
    val of_list : elt list -> t
    val elements : t -> elt list
    val iter : (elt -> unit) -> t -> unit
    val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
    val cardinal : t -> int
    val union : t -> t -> t
    val subset : t -> t -> bool
    val equal : t -> t -> bool
    val compare : t -> t -> int
  end

  val set_of_list : t list -> Set.t
end
