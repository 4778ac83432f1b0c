exception Cycle of int list

let topological_order ?(keep = fun _ -> true) g =
  let n = Digraph.vertex_count g in
  let inside = Array.init n keep in
  let size = Array.fold_left (fun k b -> k + Bool.to_int b) 0 inside in
  let count_inside k u = if inside.(u) then k + 1 else k in
  let indeg =
    Array.init n (fun v ->
        if inside.(v) then List.fold_left count_inside 0 (Digraph.pred g v) else 0)
  in
  let module Q = Set.Make (Int) in
  let ready = ref Q.empty in
  for v = 0 to n - 1 do
    if inside.(v) && indeg.(v) = 0 then ready := Q.add v !ready
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Q.is_empty !ready) do
    let v = Q.min_elt !ready in
    ready := Q.remove v !ready;
    order := v :: !order;
    incr count;
    let relax u =
      if inside.(u) then begin
        indeg.(u) <- indeg.(u) - 1;
        if indeg.(u) = 0 then ready := Q.add u !ready
      end
    in
    List.iter relax (Digraph.succ g v)
  done;
  if !count <> size then begin
    (* Find one cycle for the error report. Every unprocessed vertex keeps
       an unprocessed parent, so a walk along parents returns to a vertex
       it passed; [path] holds the walk newest first. *)
    let in_cycle v = indeg.(v) > 0 in
    let rec walk path v =
      if List.mem v path then
        let rec upto = function x :: rest when x <> v -> x :: upto rest | _ -> [ v ] in
        raise (Cycle (upto path))
      else walk (v :: path) (List.find in_cycle (Digraph.pred g v))
    in
    walk [] (List.find in_cycle (List.init n Fun.id))
  end;
  List.rev !order

let is_dag g =
  match topological_order g with
  | (_ : int list) -> true
  | exception Cycle _ -> false

let reach adj g v =
  let seen = Array.make (Digraph.vertex_count g) false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter dfs (adj g u)
    end
  in
  dfs v;
  seen

let reachable_set = reach Digraph.succ

(* The vertices [seen] marks, [v] excluded; ascending. *)
let others seen v =
  seen.(v) <- false;
  let acc = ref [] in
  for u = Array.length seen - 1 downto 0 do
    if seen.(u) then acc := u :: !acc
  done;
  !acc

let descendants g v = others (reachable_set g v) v
let ancestors g v = others (reach Digraph.pred g v) v

let longest_path_lengths g ~weight =
  let order = topological_order g in
  let n = Digraph.vertex_count g in
  let dist = Array.make n 0 in
  let process v =
    let best_pred = List.fold_left (fun acc p -> max acc dist.(p)) 0 (Digraph.pred g v) in
    dist.(v) <- best_pred + weight v
  in
  List.iter process order;
  dist
