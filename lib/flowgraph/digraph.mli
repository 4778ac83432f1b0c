(** Mutable directed graphs over integer vertex ids [0 .. n-1].

    The assay dependency graphs, the layering algorithm's working graphs and
    the min-cut instances are all small (hundreds of vertices), so a simple
    adjacency-list representation is used throughout. *)

type t

val create : int -> t
(** [create n] is a graph with vertices [0 .. n-1] and no edges. *)

val vertex_count : t -> int
val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** Duplicate edges are ignored. @raise Invalid_argument on out-of-range
    vertices or self-loops. *)

val remove_edge : t -> int -> int -> unit
val mem_edge : t -> int -> int -> bool
val succ : t -> int -> int list
val pred : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val iter_edges : (int -> int -> unit) -> t -> unit
val copy : t -> t
val transpose : t -> t

val of_edges : int -> (int * int) list -> t
val edges : t -> (int * int) list
(** In ascending [(src, dst)] order. *)

val pp : Format.formatter -> t -> unit
