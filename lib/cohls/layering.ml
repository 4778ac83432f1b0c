open Microfluidics
module G = Flowgraph.Digraph
module Dag = Flowgraph.Dag
module Flow = Flowgraph.Maxflow

type layer = {
  index : int;
  ops : int list;
  indeterminate : int list;
  stored_transfers : (int * int) list;
}

type t = {
  assay : Assay.t;
  threshold : int;
  layers : layer array;
  layer_of_op : int array;
}

(* Per-call working state over the assay's own dependency graph [dag],
   read in place. Every reachability query shares [mark]: a vertex is
   visited by the current query iff its mark equals [stamp], so a query
   costs only the vertices it reaches. [slot] numbers a min-cut network's
   vertices. *)
type graph = {
  dag : G.t;
  mark : int array;
  mutable stamp : int;
  slot : int array;
}

(* Vertices reached from [sources] along [adj] ([G.succ] or [G.pred])
   through vertices satisfying [inside], sources excluded. Until the next
   query, exactly the sources and the returned vertices carry the mark
   [g.stamp]. *)
let reach g adj ~inside sources =
  g.stamp <- g.stamp + 1;
  let s = g.stamp and mark = g.mark in
  List.iter (fun u -> mark.(u) <- s) sources;
  let acc = ref [] in
  let rec dfs u =
    List.iter
      (fun w ->
        if mark.(w) <> s && inside w then begin
          mark.(w) <- s;
          acc := w :: !acc;
          dfs w
        end)
      (adj g.dag u)
  in
  List.iter dfs sources;
  !acc

(* Marks [vs] with a fresh stamp and returns it. *)
let mark_all g vs =
  g.stamp <- g.stamp + 1;
  List.iter (fun u -> g.mark.(u) <- g.stamp) vs;
  g.stamp

(* Phase 1 of Algorithm 1 (Fig. 4): keep every indeterminate operation that
   has no indeterminate ancestor in the working set, pushing its descendants
   to later layers; then keep all untouched operations.

   The eligible operations are the roots: indeterminate operations with no
   indeterminate ancestor inside [working], marked in one sweep in
   topological order. The paper picks the next eligible operation
   "randomly", but the pick order cannot matter: no root descends from
   another, so every root is selected whatever the order, and an operation
   is pushed exactly when some root reaches it through the working set.
   One multi-source descendant search from all roots therefore pushes what
   any order of per-root rounds would. On return [kept] marks the layer;
   the result is the roots, ascending. *)
let dependency_based_allocation g ~topo ~is_indet ~working ~kept ~tainted =
  let n = Array.length working in
  List.iter
    (fun v ->
      if working.(v) then
        tainted.(v) <-
          List.exists
            (fun p -> working.(p) && (is_indet p || tainted.(p)))
            (G.pred g.dag v))
    topo;
  let roots = ref [] in
  for v = n - 1 downto 0 do
    kept.(v) <- working.(v);
    if working.(v) && is_indet v && not tainted.(v) then roots := v :: !roots
  done;
  let pushed = reach g G.succ ~inside:(Array.get kept) !roots in
  List.iter (fun w -> kept.(w) <- false) pushed;
  Telemetry.count "layering.mis_rounds";
  Telemetry.count ~by:(List.length !roots) "layering.mis_selected";
  !roots

(* A candidate's eviction, valid while no operation of [support] leaves the
   layer: the cut and the closure read nothing else of the layer. *)
type eviction = {
  cost : int;  (** storage units: the min-cut value *)
  moved : int;  (** operations evicted besides the candidate *)
  closure : int list;  (** everything evicted, the candidate included *)
  support : int list;  (** in-layer ancestors of the candidate and [closure] *)
}

(* Eviction of indeterminate [v] from the layer [kept] (Fig. 5). The cost
   is a min-cut between a virtual source standing for the previous layers
   and [v], over [v]'s ancestor subgraph inside the layer. Crossing edges
   are reagents stored at the boundary; the nearest-sink cut moves the
   fewest ancestors out. The sink side of the cut is then closed under
   in-layer descendants (one multi-source search): nothing kept may depend
   on an evicted operation. *)
let eviction g kept v =
  Telemetry.count "layering.min_cuts";
  let inside = Array.get kept in
  let anc = reach g G.pred ~inside [ v ] in
  let cost, cut_side =
    if anc = [] then (0, [])
    else begin
      let in_net = g.stamp in
      let verts = Array.of_list (List.sort compare anc) in
      let nverts = Array.length verts in
      Array.iteri (fun i u -> g.slot.(u) <- i + 1) verts;
      let src = 0 and sink = nverts + 1 in
      let idx u = if u = v then sink else g.slot.(u) in
      let net = Flow.create (nverts + 2) in
      let add_dep_edges u =
        let to_inside w =
          if g.mark.(w) = in_net then Flow.add_edge net ~src:(idx u) ~dst:(idx w) ~cap:1
        in
        List.iter to_inside (G.succ g.dag u)
      in
      Array.iter add_dep_edges verts;
      (* the virtual operation of Fig. 5(d) feeds the roots of the ancestor
         subgraph (ancestors with no parent inside it) *)
      let feed_root u =
        if not (List.exists (fun p -> g.mark.(p) = in_net) (G.pred g.dag u)) then
          Flow.add_edge net ~src ~dst:(idx u) ~cap:1
      in
      Array.iter feed_root verts;
      let value, side = Flow.min_cut_nearest_sink net ~source:src ~sink in
      let moved = ref [] in
      Array.iteri (fun i u -> if not side.(i + 1) then moved := u :: !moved) verts;
      (value, !moved)
    end
  in
  let sink_side = v :: cut_side in
  let closure = List.rev_append (reach g G.succ ~inside sink_side) sink_side in
  {
    cost;
    moved = List.length closure - 1;
    closure;
    support = List.rev_append anc closure;
  }

(* Phase 2 of Algorithm 1: while the layer holds more indeterminate
   operations than the threshold, evict the cheapest one together with the
   sink side of its cut, closed under in-layer descendants. [cache] holds
   each candidate's eviction; an eviction drops only the entries whose
   support meets the evicted set. Returns the layer's remaining selected
   operations, ascending. *)
let resource_based_allocation g ~cache ~threshold ~kept selected =
  List.iter (fun v -> cache.(v) <- None) selected;
  let hits = ref 0 in
  let evaluate v =
    match cache.(v) with
    | Some e ->
      incr hits;
      e
    | None ->
      let e = eviction g kept v in
      cache.(v) <- Some e;
      e
  in
  let rec loop selected nsel =
    if nsel <= threshold then selected
    else begin
      (* an eviction whose cascade would wipe out every indeterminate
         operation of the layer is rejected: each non-final layer must keep
         one for the cyber-physical boundary *)
      let keeps_one e =
        let s = mark_all g e.closure in
        List.exists (fun u -> g.mark.(u) <> s) selected
      in
      let consider best v =
        let e = evaluate v in
        if not (keeps_one e) then best
        else
          match best with
          | Some b when b.cost < e.cost || (b.cost = e.cost && b.moved <= e.moved) ->
            best
          | _ -> Some e
      in
      match List.fold_left consider None selected with
      | None -> selected
      | Some e ->
        Telemetry.count "layering.evictions";
        Telemetry.observe "layering.eviction_storage_cost" (float_of_int e.cost);
        let s = mark_all g e.closure in
        List.iter (fun u -> kept.(u) <- false) e.closure;
        let selected = List.filter (fun u -> g.mark.(u) <> s) selected in
        let stale v =
          match cache.(v) with
          | Some c -> List.exists (fun u -> g.mark.(u) = s) c.support
          | None -> false
        in
        List.iter (fun v -> if stale v then cache.(v) <- None) selected;
        loop selected (List.length selected)
    end
  in
  let selected = loop selected (List.length selected) in
  Telemetry.count ~by:!hits "layering.cut_cache_hits";
  selected

let compute ?(threshold = 10) assay =
  if threshold < 1 then invalid_arg "Layering.compute: threshold must be >= 1";
  (match Assay.validate assay with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Layering.compute: " ^ msg));
  Telemetry.span "layering.compute" ~attrs:[ ("assay", Assay.name assay) ]
  @@ fun () ->
  let dag = Assay.dependency_graph assay in
  let ops = Assay.operations assay in
  let n = Array.length ops in
  let g = { dag; mark = Array.make n 0; stamp = 0; slot = Array.make n 0 } in
  let topo = Dag.topological_order dag in
  let is_indet v = Operation.is_indeterminate ops.(v) in
  let remaining = Array.make n true in
  let kept = Array.make n false and tainted = Array.make n false in
  let cache = Array.make n None in
  let layers = ref [] in
  let layer_of_op = Array.make n (-1) in
  let index = ref 0 and left = ref n in
  while !left > 0 do
    let selected =
      dependency_based_allocation g ~topo ~is_indet ~working:remaining ~kept ~tainted
    in
    let selected = resource_based_allocation g ~cache ~threshold ~kept selected in
    let layer_ops = List.filter (Array.get kept) (List.init n Fun.id) in
    assert (layer_ops <> []);
    List.iter
      (fun v ->
        layer_of_op.(v) <- !index;
        remaining.(v) <- false)
      layer_ops;
    left := !left - List.length layer_ops;
    let stored =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun w -> if remaining.(w) then Some (u, w) else None)
            (G.succ dag u))
        layer_ops
    in
    layers :=
      {
        index = !index;
        ops = layer_ops;
        indeterminate = selected;
        stored_transfers = stored;
      }
      :: !layers;
    incr index
  done;
  Telemetry.count ~by:!index "layering.layers";
  { assay; threshold; layers = Array.of_list (List.rev !layers); layer_of_op }

let layer_count t = Array.length t.layers

let storage_units t =
  Array.fold_left (fun acc l -> acc + List.length l.stored_transfers) 0 t.layers

let check ?(strict = true) t =
  let ops = Assay.operations t.assay in
  let n = Array.length ops in
  let g = Assay.dependency_graph t.assay in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* partition *)
  let seen = Array.make n 0 in
  Array.iter (fun l -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) l.ops) t.layers;
  Array.iteri (fun v c -> if c <> 1 then err "op %d appears in %d layers" v c) seen;
  (* dependencies are monotone; indeterminate parents strictly earlier *)
  let check_edge u v =
    let lu = t.layer_of_op.(u) and lv = t.layer_of_op.(v) in
    if lu > lv then err "dependency %d->%d goes backwards (%d > %d)" u v lu lv;
    if Operation.is_indeterminate ops.(u) && lu >= lv then
      err "indeterminate %d has descendant %d in same layer" u v
  in
  G.iter_edges check_edge g;
  (* threshold and non-last layers have an indeterminate op *)
  Array.iteri
    (fun i l ->
      if strict && List.length l.indeterminate > t.threshold then
        err "layer %d exceeds indeterminate threshold" i;
      if strict && i < Array.length t.layers - 1 && l.indeterminate = [] then
        err "non-final layer %d has no indeterminate operation" i;
      List.iter
        (fun v ->
          if not (Operation.is_indeterminate ops.(v)) then
            err "op %d marked indeterminate in layer %d but is determinate" v i)
        l.indeterminate)
    t.layers;
  match !errors with [] -> Ok () | e -> Error (String.concat "; " (List.rev e))

let pp fmt t =
  Format.fprintf fmt "@[<v>layering of %s (threshold %d): %d layers@,"
    (Assay.name t.assay) t.threshold (Array.length t.layers);
  Array.iter
    (fun l ->
      Format.fprintf fmt "  L%d: %d ops, %d indeterminate, %d stored@," l.index
        (List.length l.ops)
        (List.length l.indeterminate)
        (List.length l.stored_transfers))
    t.layers;
  Format.fprintf fmt "@]"
