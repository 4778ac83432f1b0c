module G = Flowgraph.Digraph

type t = {
  aname : string;
  mutable ops : Operation.t list; (* reversed *)
  mutable count : int;
  mutable graph : G.t;
      (* the dependencies; operations added since the last read are not
         yet vertices of it *)
}

let create ~name = { aname = name; ops = []; count = 0; graph = G.of_edges 0 [] }

let add_operation a ?container ?capacity ?accessories ~duration name =
  let id = a.count in
  let op = Operation.make ~id ?container ?capacity ?accessories ~duration name in
  a.ops <- op :: a.ops;
  a.count <- a.count + 1;
  id

(* Every builder adds all operations before the dependencies, so the graph
   grows once. *)
let dependency_graph a =
  if G.vertex_count a.graph < a.count then
    a.graph <- G.of_edges a.count (G.edges a.graph);
  a.graph

let add_dependency a ~parent ~child =
  if parent < 0 || parent >= a.count || child < 0 || child >= a.count then
    invalid_arg "Assay.add_dependency: unknown operation id";
  if parent = child then invalid_arg "Assay.add_dependency: self-dependency";
  let g = dependency_graph a in
  if (Flowgraph.Dag.reachable_set g child).(parent) then
    invalid_arg "Assay.add_dependency: edge would close a cycle";
  a.graph <- G.add_edge g parent child

let name a = a.aname
let operation_count a = a.count

let operations a = Array.of_list (List.rev a.ops)

let operation a i =
  if i < 0 || i >= a.count then invalid_arg "Assay.operation: unknown id";
  List.nth a.ops (a.count - 1 - i)

let parents a i = G.pred (dependency_graph a) i
let children a i = G.succ (dependency_graph a) i

let indeterminate_ids a =
  List.rev
    (List.filteri (fun _ o -> Operation.is_indeterminate o) (List.rev a.ops)
     |> List.map (fun o -> o.Operation.id))

let indeterminate_count a = List.length (indeterminate_ids a)

let critical_path_minutes a =
  if a.count = 0 then 0
  else begin
    let g = dependency_graph a in
    let ops = operations a in
    let dist =
      Flowgraph.Dag.longest_path_lengths g ~weight:(fun v ->
          Operation.min_duration ops.(v))
    in
    Array.fold_left max 0 dist
  end

let validate a =
  if a.count = 0 then Error "assay has no operations"
  else if not (Flowgraph.Dag.is_dag (dependency_graph a)) then
    Error "dependency graph has a cycle"
  else Ok ()

(* A disjoint union of acyclic graphs is acyclic: no edge needs the cycle
   check of [add_dependency]. *)
let union ~name assays =
  let merged = create ~name in
  let add a =
    let offset = merged.count in
    Array.iter
      (fun (o : Operation.t) ->
        let accessories = Components.Accessory.Set.elements o.accessories in
        ignore
          (add_operation merged ?container:o.container ?capacity:o.capacity
             ~accessories ~duration:o.duration o.name))
      (operations a);
    List.map (fun (p, c) -> (p + offset, c + offset)) (G.edges (dependency_graph a))
  in
  let edges = List.fold_left (fun acc a -> List.rev_append (add a) acc) [] assays in
  merged.graph <- G.of_edges merged.count edges;
  merged

let replicate a ~copies =
  if copies <= 0 then invalid_arg "Assay.replicate: copies must be positive";
  union ~name:a.aname (List.init copies (fun _ -> a))

let pp fmt a =
  Format.fprintf fmt "@[<v>assay %s: %d ops (%d indeterminate), %d deps@]"
    a.aname a.count (indeterminate_count a)
    (G.edge_count (dependency_graph a))
