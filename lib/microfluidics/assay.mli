(** Bioassays: dependency DAGs of component-oriented operations.

    A child operation consumes the outputs of its parents and may start only
    after every parent finished and its reagents were transported (paper
    constraint (9)). *)

type t

val create : name:string -> t

val add_operation :
  t ->
  ?container:Components.Container.t ->
  ?capacity:Components.Capacity.t ->
  ?accessories:Components.Accessory.t list ->
  duration:Operation.duration ->
  string ->
  int
(** Returns the fresh operation id (dense, starting at 0). *)

val add_dependency : t -> parent:int -> child:int -> unit
(** @raise Invalid_argument on unknown ids, self-dependency, or an edge that
    would close a cycle. *)

val derive : name:string -> Operation.t array -> Flowgraph.Digraph.t -> t
(** [derive ~name ops graph] is the assay over [ops] with dependencies
    [graph], vertex [i] being [ops.(i)]. Operations are renumbered
    [0 .. n-1] in array order; every other field is kept. [graph] is shared,
    not copied, and is checked for cycles once. Recovery suffixes and the
    static baseline derive their assays this way.
    @raise Invalid_argument when [graph]'s vertex count differs from
    [Array.length ops], or [graph] has a cycle. *)

val name : t -> string
val operation_count : t -> int
val operation : t -> int -> Operation.t
(** Constant time. @raise Invalid_argument on an unknown id. *)

val operations : t -> Operation.t array
(** Fresh copy, indexed by id. *)

val parents : t -> int -> int list
val children : t -> int -> int list
val dependency_graph : t -> Flowgraph.Digraph.t
(** The current graph, shared and immutable: a graph taken before an
    [add_dependency] does not show the new edge. *)

val indeterminate_count : t -> int

val critical_path_minutes : t -> int
(** Lower bound on the makespan: the longest chain of minimum durations. *)

val validate : t -> (unit, string) result
(** Structural checks: non-empty and acyclic. Every constructor keeps the
    graph acyclic ([add_dependency] rejects a closing edge; [derive] checks
    the graph it is given; a disjoint union of acyclic assays is acyclic), so the second check guards that
    invariant; [Operation.make] already rejects non-positive durations. *)

val replicate : t -> copies:int -> t
(** [replicate a ~copies] concatenates [copies] independent instances of the
    protocol, re-indexing ids — the paper's device for scaling the three
    assays to 16/70/120 operations. *)

val union : name:string -> t list -> t
(** Disjoint union with dense re-indexing. The graph is built once, with
    no cycle check. *)

val pp : Format.formatter -> t -> unit
