(** End-to-end physical estimate: floorplan + routed channels for a
    synthesised schedule, and a transportation-time source derived from the
    {e routed} channel lengths — the strongest of the three refinement
    sources (constant < usage-rank / grid estimate < routed lengths),
    closing the loop the paper opens in §4.1. *)

type t = {
  floorplan : Floorplan.t;
  routing : Router.t;
}

val of_schedule : Microfluidics.Cost.t -> Cohls.Schedule.t -> t

val transport_times :
  Cohls.Transport.progression ->
  t ->
  op_count:int ->
  binding:(int -> int option) ->
  children:(int -> int list) ->
  Cohls.Transport.t
(** Routed lengths are bucketed into the progression terms: the shortest
    routed channel gets [min_term], the longest [max_term]; same-device
    transfers cost 0 and unrouted pairs get the slowest term. *)

val quality : t -> int * int * int
(** [(die_area, total_channel_length, crossings)]. *)

val pp : Format.formatter -> t -> unit
