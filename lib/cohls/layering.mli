(** Layering for hybrid scheduling (paper §3.1, Algorithm 1).

    The assay is split into sequential layers so that every indeterminate
    operation sits at the end of its layer's sub-schedule: the cyber-physical
    controller then only needs to act at layer boundaries. Two phases per
    layer:

    - {e dependency-based allocation}: a modified maximum-independent-set
      pass — repeatedly pick an indeterminate operation with no indeterminate
      ancestor left in the working set, keep it, and push all its descendants
      to later layers; finally keep every remaining operation (Fig. 4). The
      paper picks "randomly", but no such operation descends from another,
      so every pick order keeps the same set: all of them, with everything
      they reach through the working set pushed;
    - {e resource-based allocation}: while the layer holds more indeterminate
      operations than the threshold [t], evict the one whose removal is
      cheapest, where the cost is a Ford–Fulkerson minimum cut between a
      virtual source (the previous layer) and the operation over its
      in-layer ancestor subgraph: crossing edges are reagents that must be
      stored across the boundary; the tie-break prefers cuts moving fewer
      ancestors (Fig. 5).

    Cost per layer, for a working set of [n] operations and [m]
    dependencies. Phase 1 is O(n + m): one sweep in topological order marks
    the eligible operations (indeterminate, no indeterminate ancestor in the
    working set), and one multi-source descendant search from all of them
    marks the pushed operations. Phase 2 evaluates a candidate once, then
    reuses it: one ancestor search, one max-flow on the in-layer ancestor
    subgraph and one multi-source descendant search for the closure. The
    cached evaluation depends only on its {e support}, the candidate's
    in-layer ancestors plus its closure. An eviction therefore drops just
    the entries whose support meets the evicted set; each round rescans the
    cached candidates to re-apply the "keeps one indeterminate operation"
    filter and pick the cheapest. Telemetry counts computed cuts as
    [layering.min_cuts] and reused ones as [layering.cut_cache_hits]. *)

open Microfluidics

type layer = {
  index : int;
  ops : int list;  (** ascending op ids *)
  indeterminate : int list;  (** subset of [ops] *)
  stored_transfers : (int * int) list;
      (** (parent in this or earlier layer, child in a later layer): reagent
          transfers crossing this layer's boundary because eviction split a
          dependency — each occupies one storage unit (Fig. 5). *)
}

type t = {
  assay : Assay.t;
  threshold : int;
  layers : layer array;
  layer_of_op : int array;
}

val compute : ?threshold:int -> Assay.t -> t
(** Default [threshold = 10] (the paper's experimental setting). The result
    is deterministic and equals the layering of every phase-1 pick order.
    @raise Invalid_argument if [threshold < 1] or the assay fails
    validation. *)

val layer_count : t -> int
val storage_units : t -> int
(** Total stored transfers over all boundaries. *)

val check : ?strict:bool -> t -> (unit, string) result
(** Verifies the structural invariants: the layers partition the operation
    set; dependencies never point to an earlier layer; descendants of an
    indeterminate operation live in strictly later layers. With
    [strict = true] (default) additionally: every layer except possibly the
    last contains an indeterminate operation, and no layer exceeds the
    indeterminate threshold — properties the paper states but which an
    eviction cascade can violate on adversarial dependency graphs (the
    implementation then prefers keeping a boundary operation over the
    threshold). *)

val pp : Format.formatter -> t -> unit
