(** Component-oriented operation definitions (paper §2.2).

    An operation declares (a) the container/capacity and accessories it
    needs, (b) its execution duration — exact, or indeterminate with a
    minimum — and (c) its dependencies (kept in {!Assay}). The binding rule
    is structural: an operation fits any device whose container matches and
    whose accessory set is a superset of the requirement. *)

open Components

type duration =
  | Fixed of int  (** minutes *)
  | Indeterminate of { min_minutes : int }
      (** lower bound; actual duration decided at run time (e.g. single-cell
          capture reruns) *)

type t = {
  id : int;
  name : string;
  container : Container.t option;  (** [None]: ring or chamber both fit *)
  capacity : Capacity.t option;  (** [None]: any capacity class *)
  accessories : Accessory.Set.t;
  duration : duration;
}

val make :
  id:int ->
  ?container:Container.t ->
  ?capacity:Capacity.t ->
  ?accessories:Accessory.t list ->
  duration:duration ->
  string ->
  t
(** @raise Invalid_argument if a specified container/capacity pair is
    inconsistent, or the duration is non-positive. *)

val is_indeterminate : t -> bool

val min_duration : t -> int
(** The fixed duration, or the indeterminate minimum. *)

val compatible_with_device : t -> Device.t -> bool
(** The component-oriented binding rule: container matches (when specified),
    capacity class matches (when specified, and always within the device
    container's allowed classes), and the device's accessories include the
    operation's. *)

val requirement_signature : t -> string
(** Canonical string of the component requirements; the conventional
    baseline classifies operations into pseudo-types by this key. *)

val pp : Format.formatter -> t -> unit
