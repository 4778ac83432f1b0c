(** Chip floorplanning: device rectangles on a unit grid.

    High-level synthesis only reasons about {e potential} layout (paper
    §4.1); this module makes the potential concrete enough to route
    against: every device becomes a rectangle whose footprint is derived
    from its area cost, placed greedily by connectivity (heaviest-path
    endpoints first, like {!Microfluidics.Layout} but with real extents and
    a routing halo between blocks). *)

type rect = { device : int; x : int; y : int; w : int; h : int }

type t = {
  rects : rect list;  (** ascending device id *)
  width : int;  (** die width in grid units *)
  height : int;
}

val plan :
  cost:Microfluidics.Cost.t ->
  devices:Microfluidics.Device.t list ->
  path_usage:((int * int) * int) list ->
  unit ->
  t
(** One empty cell (the halo) is kept around every rectangle so the
    router always has a channel. Footprints: a device of area [a] becomes a
    rectangle of roughly square shape with [w*h >= a]. *)

val rect_of : t -> int -> rect option
val die_area : t -> int
val occupied : t -> x:int -> y:int -> bool
(** Inside some device rectangle (halos not included). *)

val port_of : t -> int -> int * int
(** A cell on the rectangle's boundary used as the routing terminal.
    @raise Not_found for unknown devices. *)

val pp : Format.formatter -> t -> unit
