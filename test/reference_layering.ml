(* Reference implementation of Algorithm 1 for the layering tests: the
   straightforward version, which re-runs every reachability query and
   recomputes every candidate's min-cut and descendant closure after each
   eviction. It is slow on purpose and keeps no state between evictions, so
   [Cohls.Layering.compute] must return exactly its layering. It builds the
   library's record types and counts its evictions in [evictions] (reset by
   every [compute]). *)

open Microfluidics
open Cohls.Layering
module G = Flowgraph.Digraph
module Flow = Flowgraph.Maxflow

let evictions = ref 0

(* Phase 1's pick among the eligible operations: the smallest id, or the
   paper's literal "randomly choose" (§3.1), pseudo-random and reproducible
   per seed. The library takes no choice; it must agree with every one. *)
type choice = Smallest_id | Seeded of int

module Iset = Set.Make (Int)

(* Descendants of [v] within the vertex set [inside], computed on the full
   dependency graph. *)
let descendants_within g inside v =
  let n = G.vertex_count g in
  let seen = Array.make n false in
  let rec dfs u =
    let visit w =
      if (not seen.(w)) && Iset.mem w inside then begin
        seen.(w) <- true;
        dfs w
      end
    in
    List.iter visit (G.succ g u)
  in
  dfs v;
  let acc = ref Iset.empty in
  Array.iteri (fun u s -> if s then acc := Iset.add u !acc) seen;
  !acc

let ancestors_within g inside v =
  let n = G.vertex_count g in
  let seen = Array.make n false in
  let rec dfs u =
    let visit w =
      if (not seen.(w)) && Iset.mem w inside then begin
        seen.(w) <- true;
        dfs w
      end
    in
    List.iter visit (G.pred g u)
  in
  dfs v;
  let acc = ref Iset.empty in
  Array.iteri (fun u s -> if s then acc := Iset.add u !acc) seen;
  !acc

(* Phase 1 of Algorithm 1 (Fig. 4): keep every indeterminate operation that
   has no indeterminate ancestor in the working set, pushing its descendants
   to later layers; then keep all untouched operations, round by round: each
   round picks one eligible operation by [choice]. Returns
   (kept, selected_indeterminates). *)
let dependency_based_allocation g is_indet ~choice working =
  let pushed = ref Iset.empty in
  let selected = ref Iset.empty in
  let pick_round = ref 0 in
  let candidate () =
    let in_graph v = Iset.mem v working && (not (Iset.mem v !pushed)) && not (Iset.mem v !selected) in
    let viable v =
      in_graph v && is_indet v
      && begin
        let anc = ancestors_within g (Iset.diff working !pushed) v in
        not (Iset.exists (fun a -> is_indet a && not (Iset.mem a !selected)) anc)
      end
    in
    let eligible = List.filter viable (Iset.elements working) in
    match (eligible, choice) with
    | [], (Smallest_id | Seeded _) -> None
    | v :: _, Smallest_id -> Some v
    | vs, Seeded seed ->
      incr pick_round;
      let h = ref (seed * 0x9E3779B1 + (!pick_round * 0x85EBCA77)) in
      h := !h lxor (!h lsr 13);
      h := !h * 0xC2B2AE35;
      h := !h lxor (!h lsr 16);
      Some (List.nth vs (abs !h mod List.length vs))
  in
  let rec loop () =
    match candidate () with
    | None -> ()
    | Some v ->
      selected := Iset.add v !selected;
      let inside = Iset.diff working (Iset.union !pushed !selected) in
      pushed := Iset.union !pushed (descendants_within g inside v);
      loop ()
  in
  loop ();
  (Iset.diff working !pushed, !selected)

(* Eviction cost of indeterminate [v] from the layer [kept] (Fig. 5): a
   min-cut between a virtual source standing for the previous layers and
   [v], over [v]'s ancestor subgraph inside the layer. Crossing edges are
   reagents stored at the boundary; the nearest-sink cut moves the fewest
   ancestors out. Returns (storage_cost, moved_set including v). *)
let eviction_cut g kept v =
  let anc = ancestors_within g kept v in
  if Iset.is_empty anc then (0, Iset.singleton v)
  else begin
    let verts = Iset.elements anc in
    let index = Hashtbl.create 16 in
    List.iteri (fun i u -> Hashtbl.replace index u (i + 1)) verts;
    let nverts = List.length verts in
    let src = 0 and sink = nverts + 1 in
    let net = Flow.create (nverts + 2) in
    let idx u = if u = v then sink else Hashtbl.find index u in
    let add_dep_edges u =
      let to_inside w =
        if w = v || Iset.mem w anc then
          Flow.add_edge net ~src:(idx u) ~dst:(idx w) ~cap:1
      in
      List.iter to_inside (G.succ g u)
    in
    Iset.iter add_dep_edges anc;
    (* the virtual operation of Fig. 5(d) feeds the roots of the ancestor
       subgraph (ancestors with no parent inside it) *)
    let feed_root u =
      let has_inside_parent = List.exists (fun p -> Iset.mem p anc) (G.pred g u) in
      if not has_inside_parent then Flow.add_edge net ~src ~dst:(idx u) ~cap:1
    in
    Iset.iter feed_root anc;
    let value, side = Flow.min_cut_nearest_sink net ~source:src ~sink in
    let moved = ref (Iset.singleton v) in
    List.iteri (fun i u -> if not side.(i + 1) then moved := Iset.add u !moved) verts;
    (value, !moved)
  end

(* Phase 2 of Algorithm 1: while the layer holds more indeterminate
   operations than the threshold, evict the cheapest one together with the
   sink side of its cut, closed under in-layer descendants. *)
let resource_based_allocation g is_indet threshold kept selected =
  ignore is_indet;
  let kept = ref kept and selected = ref selected in
  (* Descendant closure inside the layer: nothing kept may depend on an
     evicted operation. *)
  let closure_of moved =
    let closure = ref moved in
    let grew = ref true in
    while !grew do
      grew := false;
      let expand u =
        let inside = Iset.remove u !kept in
        let desc = descendants_within g inside u in
        let fresh = Iset.diff desc !closure in
        if not (Iset.is_empty fresh) then begin
          closure := Iset.union !closure fresh;
          grew := true
        end
      in
      Iset.iter expand !closure
    done;
    !closure
  in
  let stop = ref false in
  while (not !stop) && Iset.cardinal !selected > threshold do
    let cost v =
      let c, moved = eviction_cut g !kept v in
      let closure = closure_of moved in
      (c, Iset.cardinal closure - 1, v, closure)
    in
    let candidates =
      (* an eviction whose cascade would wipe out every indeterminate
         operation of the layer is rejected: each non-final layer must keep
         one for the cyber-physical boundary *)
      List.filter
        (fun (_, _, _, closure) -> not (Iset.subset !selected closure))
        (List.map cost (Iset.elements !selected))
    in
    let best =
      List.fold_left
        (fun acc cand ->
          match acc with
          | None -> Some cand
          | Some (c0, m0, v0, _) ->
            let c, m, v, _ = cand in
            if (c, m, v) < (c0, m0, v0) then Some cand else acc)
        None candidates
    in
    match best with
    | None -> stop := true
    | Some (_, _, _, closure) ->
      incr evictions;
      kept := Iset.diff !kept closure;
      selected := Iset.diff !selected closure
  done;
  (!kept, !selected)

let compute ?(threshold = 10) ?(choice = Smallest_id) assay =
  evictions := 0;
  if threshold < 1 then invalid_arg "Layering.compute: threshold must be >= 1";
  (match Assay.validate assay with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Layering.compute: " ^ msg));
  let g = Assay.dependency_graph assay in
  let ops = Assay.operations assay in
  let n = Array.length ops in
  let is_indet v = Operation.is_indeterminate ops.(v) in
  let remaining = ref (Iset.of_list (List.init n Fun.id)) in
  let layers = ref [] in
  let layer_of_op = Array.make n (-1) in
  let index = ref 0 in
  while not (Iset.is_empty !remaining) do
    let kept, selected = dependency_based_allocation g is_indet ~choice !remaining in
    let kept, selected = resource_based_allocation g is_indet threshold kept selected in
    assert (not (Iset.is_empty kept));
    Iset.iter (fun v -> layer_of_op.(v) <- !index) kept;
    remaining := Iset.diff !remaining kept;
    let stored =
      let crossing u acc =
        List.fold_left
          (fun acc w -> if Iset.mem w !remaining then (u, w) :: acc else acc)
          acc (G.succ g u)
      in
      List.sort compare (Iset.fold crossing kept [])
    in
    layers :=
      {
        index = !index;
        ops = Iset.elements kept;
        indeterminate = Iset.elements selected;
        stored_transfers = stored;
      }
      :: !layers;
    incr index
  done;
  { assay; threshold; layers = Array.of_list (List.rev !layers); layer_of_op }
