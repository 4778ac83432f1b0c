(** Maximum s-t flow (Edmonds–Karp realisation of Ford–Fulkerson).

    The paper's resource-based layer eviction (§3.1, Fig. 5) prices the
    removal of an indeterminate operation as a minimum cut between a virtual
    source and the operation; by max-flow/min-cut duality we compute it
    here. Capacities are non-negative ints; [max_int] encodes +∞. *)

type t

val infinity : int
(** Capacity value treated as unbounded. *)

val create : int -> t
(** [create n] builds an empty flow network on vertices [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> unit
(** Adds a directed edge. Parallel edges accumulate their capacities.
    @raise Invalid_argument on negative capacity, out-of-range vertices or
    self-loops. *)

val max_flow : t -> source:int -> sink:int -> int
(** Computes the maximum flow value. Resets any previous flow. *)

val min_cut_nearest_sink : t -> source:int -> sink:int -> int * bool array
(** [min_cut_nearest_sink t ~source ~sink] is [(value, side)] where
    [side.(v)] is [true] iff [v] lies on the source side of the minimum cut
    with the {e fewest} vertices on the sink side (the cut "closest to the
    sink"): the sink side is the set of vertices that still reach the sink
    in the residual graph. Among all minimum cuts this one moves the least
    material to the sink side — the tie-break rule of the paper's Fig. 5
    ([c2] over [c1]). Runs a fresh max-flow first. *)
