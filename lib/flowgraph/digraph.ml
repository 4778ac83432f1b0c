(* Versions share every vertex's lists; [add_edge] replaces two of them. *)
type t = { succs : int list array; preds : int list array; edges : int }

let vertex_count g = Array.length g.succs
let edge_count g = g.edges

let check n v = if v < 0 || v >= n then invalid_arg "Digraph: vertex out of range"

let check_edge name n u v =
  check n u;
  check n v;
  if u = v then invalid_arg (name ^ ": self-loop")

let succ g v = check (vertex_count g) v; g.succs.(v)
let pred g v = check (vertex_count g) v; g.preds.(v)
let mem_edge g u v = check (vertex_count g) v; List.mem v (succ g u)

let of_edges n edge_list =
  if n < 0 then invalid_arg "Digraph.of_edges: negative size";
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (u, v) ->
      check_edge "Digraph.of_edges" n u v;
      succs.(u) <- v :: succs.(u);
      preds.(v) <- u :: preds.(v))
    edge_list;
  Array.map_inplace (List.sort_uniq Int.compare) succs;
  Array.map_inplace (List.sort_uniq Int.compare) preds;
  { succs; preds; edges = Array.fold_left (fun k l -> k + List.length l) 0 succs }

(* [x] into the ascending [l], which does not hold it. *)
let rec insert x = function
  | y :: rest when y < x -> y :: insert x rest
  | l -> x :: l

let add_edge g u v =
  check_edge "Digraph.add_edge" (vertex_count g) u v;
  if List.mem v g.succs.(u) then g
  else begin
    let succs = Array.copy g.succs and preds = Array.copy g.preds in
    succs.(u) <- insert v succs.(u);
    preds.(v) <- insert u preds.(v);
    { succs; preds; edges = g.edges + 1 }
  end

let iter_edges f g = Array.iteri (fun u vs -> List.iter (f u) vs) g.succs

let edges g =
  Array.to_list g.succs |> List.mapi (fun u vs -> List.map (fun v -> (u, v)) vs)
  |> List.concat
