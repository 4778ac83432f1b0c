(** Immutable directed graphs over integer vertex ids [0 .. n-1].

    An assay's dependency graph is built once and then read in place by
    layering, list scheduling, the ILP model and validation. Each vertex
    keeps its successors and predecessors as sorted lists, so [succ] and
    [pred] return them without copying, and no reader can change the graph
    another reader sees. *)

type t

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] is the graph on vertices [0 .. n-1] with [edges].
    Duplicate edges are ignored. @raise Invalid_argument on a negative
    size, out-of-range vertices or self-loops. *)

val add_edge : t -> int -> int -> t
(** [add_edge g u v] is [g] plus the edge [u -> v]; [g] itself is
    unchanged. It copies the two outer arrays and shares every other
    vertex's lists, so it costs O(n + degree). Returns [g] when the edge is
    already present. @raise Invalid_argument on out-of-range vertices or
    self-loops. *)

val vertex_count : t -> int
val edge_count : t -> int
val mem_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Ascending; returned as stored. *)

val pred : t -> int -> int list
(** Ascending; returned as stored. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** In ascending [(src, dst)] order. *)

val edges : t -> (int * int) list
(** In ascending [(src, dst)] order. *)
