(** Algorithms on directed acyclic graphs.

    Assay dependency graphs are DAGs (a child operation consumes the outputs
    of its parents); the layering algorithm of the paper repeatedly needs
    topological orders, ancestor/descendant sets and reachability. *)

exception Cycle of int list
(** Raised with one offending cycle, its vertices in edge order, when an
    algorithm requires acyclicity. *)

val topological_order : ?keep:(int -> bool) -> Digraph.t -> int list
(** Deterministic topological order of the vertices [keep] accepts (all of
    them by default) under the edges between them: among the ready
    vertices the smallest id comes first.
    @raise Cycle if those edges form a directed cycle. *)

val is_dag : Digraph.t -> bool

val descendants : Digraph.t -> int -> int list
(** All vertices reachable from [v], excluding [v] itself; sorted. *)

val ancestors : Digraph.t -> int -> int list
(** All vertices that reach [v], excluding [v] itself; sorted. *)

val reachable_set : Digraph.t -> int -> bool array
(** [reachable_set g v].(u) is true iff [u = v] or [v] reaches [u]. *)

val longest_path_lengths : Digraph.t -> weight:(int -> int) -> int array
(** [longest_path_lengths g ~weight] gives, per vertex, the maximum total
    [weight] over paths ending at that vertex (inclusive). Used for critical
    path / ASAP bounds. @raise Cycle on cyclic input. *)
