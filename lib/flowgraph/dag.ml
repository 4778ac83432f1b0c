exception Cycle of int list

let topological_order g =
  let n = Digraph.vertex_count g in
  let indeg = Array.init n (Digraph.in_degree g) in
  let module Q = Set.Make (Int) in
  let ready = ref Q.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := Q.add v !ready
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Q.is_empty !ready) do
    let v = Q.min_elt !ready in
    ready := Q.remove v !ready;
    order := v :: !order;
    incr count;
    let relax u =
      indeg.(u) <- indeg.(u) - 1;
      if indeg.(u) = 0 then ready := Q.add u !ready
    in
    List.iter relax (Digraph.succ g v)
  done;
  if !count <> n then begin
    (* Find one cycle among the unprocessed vertices for the error report. *)
    let in_cycle = Array.make n false in
    for v = 0 to n - 1 do
      if indeg.(v) > 0 then in_cycle.(v) <- true
    done;
    let start =
      let rec find v = if v < n && not in_cycle.(v) then find (v + 1) else v in
      find 0
    in
    let rec walk path v =
      if List.mem v path then
        let rec cut = function
          | [] -> []
          | x :: rest -> if x = v then [ x ] else x :: cut rest
        in
        raise (Cycle (cut (List.rev (v :: path))))
      else begin
        match List.filter (fun u -> in_cycle.(u)) (Digraph.succ g v) with
        | [] -> raise (Cycle [ v ])
        | u :: _ -> walk (v :: path) u
      end
    in
    walk [] start
  end;
  List.rev !order

let is_dag g =
  match topological_order g with
  | (_ : int list) -> true
  | exception Cycle _ -> false

let reachable_set g v =
  let n = Digraph.vertex_count g in
  let seen = Array.make n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter dfs (Digraph.succ g u)
    end
  in
  dfs v;
  seen

let descendants g v =
  let seen = reachable_set g v in
  seen.(v) <- false;
  let acc = ref [] in
  for u = Array.length seen - 1 downto 0 do
    if seen.(u) then acc := u :: !acc
  done;
  !acc

let ancestors g v =
  let gt = Digraph.transpose g in
  descendants gt v

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

let induced_subgraph g ~keep =
  let n = Digraph.vertex_count g in
  let new_of_old = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if keep v then begin
      new_of_old.(v) <- !count;
      incr count
    end
  done;
  let old_of_new = Array.make !count 0 in
  for v = 0 to n - 1 do
    if new_of_old.(v) >= 0 then old_of_new.(new_of_old.(v)) <- v
  done;
  let h = Digraph.create !count in
  let add u v =
    if new_of_old.(u) >= 0 && new_of_old.(v) >= 0 then
      Digraph.add_edge h new_of_old.(u) new_of_old.(v)
  in
  Digraph.iter_edges add g;
  (h, old_of_new, new_of_old)
