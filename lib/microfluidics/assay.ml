type t = {
  aname : string;
  mutable ops : Operation.t list; (* reversed *)
  mutable count : int;
  mutable deps : (int * int) list; (* (parent, child), reversed *)
  mutable reach_cache : Flowgraph.Digraph.t option;
}

let create ~name = { aname = name; ops = []; count = 0; deps = []; reach_cache = None }

let add_operation a ?container ?capacity ?accessories ~duration name =
  let id = a.count in
  let op = Operation.make ~id ?container ?capacity ?accessories ~duration name in
  a.ops <- op :: a.ops;
  a.count <- a.count + 1;
  a.reach_cache <- None;
  id

let graph_internal a =
  match a.reach_cache with
  | Some g -> g
  | None ->
    let g = Flowgraph.Digraph.of_edges a.count a.deps in
    a.reach_cache <- Some g;
    g

let add_dependency a ~parent ~child =
  if parent < 0 || parent >= a.count || child < 0 || child >= a.count then
    invalid_arg "Assay.add_dependency: unknown operation id";
  if parent = child then invalid_arg "Assay.add_dependency: self-dependency";
  let g = graph_internal a in
  if (Flowgraph.Dag.reachable_set g child).(parent) then
    invalid_arg "Assay.add_dependency: edge would close a cycle";
  (* the cached graph stays valid: the edge goes in place *)
  if not (Flowgraph.Digraph.mem_edge g parent child) then begin
    a.deps <- (parent, child) :: a.deps;
    Flowgraph.Digraph.add_edge g parent child
  end

let name a = a.aname
let operation_count a = a.count

let operations a = Array.of_list (List.rev a.ops)

let operation a i =
  if i < 0 || i >= a.count then invalid_arg "Assay.operation: unknown id";
  List.nth a.ops (a.count - 1 - i)

let dependency_graph a = Flowgraph.Digraph.copy (graph_internal a)

let parents a i = Flowgraph.Digraph.pred (graph_internal a) i
let children a i = Flowgraph.Digraph.succ (graph_internal a) i

let indeterminate_ids a =
  List.rev
    (List.filteri (fun _ o -> Operation.is_indeterminate o) (List.rev a.ops)
     |> List.map (fun o -> o.Operation.id))

let indeterminate_count a = List.length (indeterminate_ids a)

let critical_path_minutes a =
  if a.count = 0 then 0
  else begin
    let g = graph_internal a in
    let ops = operations a in
    let dist =
      Flowgraph.Dag.longest_path_lengths g ~weight:(fun v ->
          Operation.min_duration ops.(v))
    in
    Array.fold_left max 0 dist
  end

let validate a =
  if a.count = 0 then Error "assay has no operations"
  else if not (Flowgraph.Dag.is_dag (graph_internal a)) then
    Error "dependency graph has a cycle"
  else Ok ()

let union ~name assays =
  let merged = create ~name in
  (* all operations first: adding one drops the cached graph, which the
     dependencies then build once and extend in place *)
  let add_operations a =
    let offset = merged.count in
    Array.iter
      (fun (o : Operation.t) ->
        let accessories = Components.Accessory.Set.elements o.accessories in
        ignore
          (add_operation merged ?container:o.container ?capacity:o.capacity
             ~accessories ~duration:o.duration o.name))
      (operations a);
    offset
  in
  let offsets = List.map add_operations assays in
  let add_dependencies a offset =
    List.iter
      (fun (p, c) -> add_dependency merged ~parent:(p + offset) ~child:(c + offset))
      (List.rev a.deps)
  in
  List.iter2 add_dependencies assays offsets;
  merged

let replicate a ~copies =
  if copies <= 0 then invalid_arg "Assay.replicate: copies must be positive";
  union ~name:a.aname (List.init copies (fun _ -> a))

let pp fmt a =
  Format.fprintf fmt "@[<v>assay %s: %d ops (%d indeterminate), %d deps@]"
    a.aname a.count (indeterminate_count a)
    (List.length a.deps)
