(** End-to-end physical estimate: floorplan + routed channels for a
    synthesised schedule. *)

type t = {
  floorplan : Floorplan.t;
  routing : Router.t;
}

val of_schedule : Microfluidics.Cost.t -> Cohls.Schedule.t -> t

val quality : t -> int * int * int
(** [(die_area, total_channel_length, crossings)]. *)

val pp : Format.formatter -> t -> unit
