module G = Flowgraph.Digraph

type t = {
  aname : string;
  mutable ops : Operation.t array; (* the first [count] slots, indexed by id *)
  mutable count : int;
  mutable graph : G.t;
      (* the dependencies; operations added since the last read are not
         yet vertices of it *)
}

let create ~name = { aname = name; ops = [||]; count = 0; graph = G.of_edges 0 [] }

let add_operation a ?container ?capacity ?accessories ~duration name =
  let id = a.count in
  let op = Operation.make ~id ?container ?capacity ?accessories ~duration name in
  if id = Array.length a.ops then begin
    let grown = Array.make (max 8 (2 * id)) op in
    Array.blit a.ops 0 grown 0 id;
    a.ops <- grown
  end;
  a.ops.(id) <- op;
  a.count <- id + 1;
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

(* The one constructor of a finished assay; [graph] must have one vertex
   per operation. *)
let renumber ~name ops graph =
  let ops = Array.mapi (fun id (o : Operation.t) -> { o with id }) ops in
  { aname = name; ops; count = Array.length ops; graph }

let derive ~name ops graph =
  if G.vertex_count graph <> Array.length ops then
    invalid_arg "Assay.derive: graph size differs from the operation count";
  if not (Flowgraph.Dag.is_dag graph) then invalid_arg "Assay.derive: graph has a cycle";
  renumber ~name ops graph

let name a = a.aname
let operation_count a = a.count

let operations a = Array.sub a.ops 0 a.count

let operation a i =
  if i < 0 || i >= a.count then invalid_arg "Assay.operation: unknown id";
  a.ops.(i)

let parents a i = G.pred (dependency_graph a) i
let children a i = G.succ (dependency_graph a) i

let indeterminate_count a =
  let n = ref 0 in
  for i = 0 to a.count - 1 do
    if Operation.is_indeterminate a.ops.(i) then incr n
  done;
  !n

let critical_path_minutes a =
  if a.count = 0 then 0
  else begin
    let dist =
      Flowgraph.Dag.longest_path_lengths (dependency_graph a) ~weight:(fun v ->
          Operation.min_duration a.ops.(v))
    in
    Array.fold_left max 0 dist
  end

let validate a =
  if a.count = 0 then Error "assay has no operations"
  else if not (Flowgraph.Dag.is_dag (dependency_graph a)) then
    Error "dependency graph has a cycle"
  else Ok ()

(* A disjoint union of acyclic graphs is acyclic: [derive]'s cycle check is
   not needed. *)
let union ~name assays =
  let shifted (offset, edges) a =
    ( offset + a.count,
      List.fold_left (fun acc (p, c) -> (p + offset, c + offset) :: acc) edges
        (G.edges a.graph) )
  in
  let count, edges = List.fold_left shifted (0, []) assays in
  renumber ~name (Array.concat (List.map operations assays)) (G.of_edges count edges)

let replicate a ~copies =
  if copies <= 0 then invalid_arg "Assay.replicate: copies must be positive";
  union ~name:a.aname (List.init copies (fun _ -> a))

let pp fmt a =
  Format.fprintf fmt "@[<v>assay %s: %d ops (%d indeterminate), %d deps@]"
    a.aname a.count (indeterminate_count a)
    (G.edge_count (dependency_graph a))
