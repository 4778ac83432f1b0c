(** Potential-chip-layout estimation (paper §4.1 and contribution III).

    High-level synthesis runs before physical design, so real channel
    lengths are unknown; the paper instead (a) counts transportation paths
    and (b) maps more-used paths to shorter channels. This module makes that
    concrete: devices are placed on a square grid by a greedy
    heaviest-edge-first heuristic, path lengths are Manhattan distances, and
    the induced length ranking picks a term of {!Cohls.Transport}'s
    arithmetic progression (2..10 minutes in 5 terms). *)

type placement = { device : int; row : int; col : int }

type t = {
  placements : placement list;
  side : int;  (** grid side length *)
  lengths : ((int * int) * int) list;
      (** unordered device pair -> Manhattan channel length *)
}

val place : device_ids:int list -> path_usage:((int * int) * int) list -> t
(** Greedy placement: the most-used path's endpoints are placed first on
    adjacent cells; remaining devices follow in decreasing connectivity
    order, each taking the free cell minimising the weighted distance to its
    already-placed neighbours. *)

val path_length : t -> int -> int -> int option
(** Manhattan length of the channel between two placed devices. *)

val pp : Format.formatter -> t -> unit
