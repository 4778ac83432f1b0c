(* Unit and property tests for the graph substrate: digraphs, DAG
   algorithms and the Ford–Fulkerson max-flow / min-cut kernel the layering
   algorithm depends on. *)

module G = Flowgraph.Digraph
module Dag = Flowgraph.Dag
module F = Flowgraph.Maxflow

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let int_list = Alcotest.(list int)

(* ---------- Digraph ---------- *)

let test_digraph_basic () =
  let g = G.of_edges 4 [ (0, 2); (0, 1); (0, 1) (* duplicate ignored *) ] in
  check int_t "vertices" 4 (G.vertex_count g);
  check int_t "no edges" 0 (G.edge_count (G.of_edges 4 []));
  check int_t "edges" 2 (G.edge_count g);
  check bool "mem" true (G.mem_edge g 0 1);
  check bool "not mem" false (G.mem_edge g 1 0);
  check int_list "succ" [ 1; 2 ] (G.succ g 0);
  check int_list "pred" [ 0 ] (G.pred g 1);
  check int_t "duplicate add_edge" 2 (G.edge_count (G.add_edge g 0 1))

let test_digraph_errors () =
  let g = G.of_edges 2 [] in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> ignore (G.add_edge g 0 0));
  Alcotest.check_raises "self loop in of_edges"
    (Invalid_argument "Digraph.of_edges: self-loop") (fun () ->
      ignore (G.of_edges 2 [ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Digraph: vertex out of range")
    (fun () -> ignore (G.add_edge g 0 5));
  Alcotest.check_raises "range in of_edges"
    (Invalid_argument "Digraph: vertex out of range") (fun () ->
      ignore (G.of_edges 2 [ (0, 1); (-1, 0) ]));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Digraph.of_edges: negative size") (fun () ->
      ignore (G.of_edges (-1) []))

let test_digraph_persistent () =
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let g' = G.add_edge g 0 2 in
  check bool "input unchanged" false (G.mem_edge g 0 2);
  check int_t "input count unchanged" 2 (G.edge_count g);
  check (Alcotest.list (Alcotest.pair int_t int_t)) "input edges unchanged"
    [ (0, 1); (1, 2) ] (G.edges g);
  check bool "new edge" true (G.mem_edge g' 0 2);
  check int_list "succ stays sorted" [ 1; 2 ] (G.succ g' 0);
  check int_list "pred stays sorted" [ 0; 1 ] (G.pred g' 2);
  check int_t "new count" 3 (G.edge_count g')

let test_digraph_edges_order () =
  let g = G.of_edges 3 [ (2, 1); (0, 2); (0, 1) ] in
  check (Alcotest.list (Alcotest.pair int_t int_t)) "ascending"
    [ (0, 1); (0, 2); (2, 1) ] (G.edges g)

(* ---------- Dag ---------- *)

let diamond () = G.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_topo_order () =
  check int_list "diamond" [ 0; 1; 2; 3 ] (Dag.topological_order (diamond ()));
  check int_list "empty" [] (Dag.topological_order (G.of_edges 0 []));
  check int_list "isolated" [ 0; 1; 2 ] (Dag.topological_order (G.of_edges 3 []))

(* [cyc] is a directed cycle of [g], listed in edge order. *)
let is_cycle g cyc =
  match cyc with
  | [] -> false
  | first :: _ ->
    let rec closed = function
      | [ last ] -> G.mem_edge g last first
      | u :: (v :: _ as rest) -> G.mem_edge g u v && closed rest
      | [] -> false
    in
    closed cyc

let test_topo_cycle () =
  let g = G.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  (match Dag.topological_order g with
   | _ -> Alcotest.fail "expected Cycle"
   | exception Dag.Cycle cyc ->
     check bool "reported cycle is a cycle" true (is_cycle g cyc));
  check bool "is_dag false" false (Dag.is_dag g);
  check bool "is_dag true" true (Dag.is_dag (diamond ()))

let test_descendants_ancestors () =
  let g = diamond () in
  check int_list "desc 0" [ 1; 2; 3 ] (Dag.descendants g 0);
  check int_list "desc 3" [] (Dag.descendants g 3);
  check int_list "anc 3" [ 0; 1; 2 ] (Dag.ancestors g 3);
  check int_list "anc 0" [] (Dag.ancestors g 0);
  let r = Dag.reachable_set g 1 in
  check bool "reach self" true r.(1);
  check bool "reach 3" true r.(3);
  check bool "not reach 2" false r.(2)

let test_longest_path () =
  let g = diamond () in
  let d = Dag.longest_path_lengths g ~weight:(fun _ -> 1) in
  check int_t "sink depth" 3 d.(3);
  check int_t "source depth" 1 d.(0);
  let d2 = Dag.longest_path_lengths g ~weight:(fun v -> if v = 1 then 10 else 1) in
  check int_t "weighted" 12 d2.(3)

let test_topo_subset () =
  let g = diamond () in
  let order keep = Dag.topological_order ~keep g in
  check int_list "without 1" [ 0; 2; 3 ] (order (fun v -> v <> 1));
  check int_list "1 and 3" [ 1; 3 ] (order (fun v -> v mod 2 = 1));
  check int_list "none" [] (order (fun _ -> false));
  let cyc = G.of_edges 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  check int_list "cycle outside the subset" [ 2; 3 ]
    (Dag.topological_order ~keep:(fun v -> v >= 2) cyc);
  match Dag.topological_order ~keep:(fun v -> v <= 2) cyc with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Dag.Cycle c ->
    check bool "reported cycle is a cycle" true (is_cycle cyc c)

(* ---------- Maxflow ---------- *)

(* CLRS figure: max flow 23. *)
let clrs_edges =
  [
    (0, 1, 16); (0, 2, 13); (1, 3, 12); (2, 1, 4); (2, 4, 14); (3, 2, 9);
    (3, 5, 20); (4, 3, 7); (4, 5, 4);
  ]

let clrs_network () =
  let n = F.create 6 in
  List.iter (fun (src, dst, cap) -> F.add_edge n ~src ~dst ~cap) clrs_edges;
  n

(* Capacity of the edges crossing from the source side to the sink side. *)
let cut_capacity edges side =
  List.fold_left
    (fun acc (a, b, c) -> if a <> b && side.(a) && not side.(b) then acc + c else acc)
    0 edges

let test_maxflow_clrs () =
  check int_t "clrs" 23 (F.max_flow (clrs_network ()) ~source:0 ~sink:5)

let test_maxflow_disconnected () =
  let n = F.create 3 in
  F.add_edge n ~src:0 ~dst:1 ~cap:5;
  check int_t "no path" 0 (F.max_flow n ~source:0 ~sink:2)

let test_maxflow_parallel_edges () =
  let n = F.create 2 in
  F.add_edge n ~src:0 ~dst:1 ~cap:3;
  F.add_edge n ~src:0 ~dst:1 ~cap:4;
  check int_t "merged" 7 (F.max_flow n ~source:0 ~sink:1)

let test_maxflow_rerun () =
  let n = clrs_network () in
  check int_t "first" 23 (F.max_flow n ~source:0 ~sink:5);
  check int_t "second run identical" 23 (F.max_flow n ~source:0 ~sink:5)

let test_mincut_value_and_side () =
  let n = clrs_network () in
  let value, side = F.min_cut_nearest_sink n ~source:0 ~sink:5 in
  check int_t "value" 23 value;
  check bool "source on source side" true side.(0);
  check bool "sink on sink side" false side.(5);
  check int_t "cut capacity = flow" 23 (cut_capacity clrs_edges side)

let test_mincut_nearest_sink () =
  (* Path a -> b -> c with unit capacities everywhere: any single edge is a
     min cut; the nearest-sink variant must put only the sink on the sink
     side. *)
  let n = F.create 3 in
  F.add_edge n ~src:0 ~dst:1 ~cap:1;
  F.add_edge n ~src:1 ~dst:2 ~cap:1;
  let value, side = F.min_cut_nearest_sink n ~source:0 ~sink:2 in
  check int_t "value" 1 value;
  check bool "middle vertex on source side" true side.(1);
  check bool "sink on sink side" false side.(2)

let test_maxflow_errors () =
  let n = F.create 2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      F.add_edge n ~src:0 ~dst:1 ~cap:(-1));
  Alcotest.check_raises "self loop" (Invalid_argument "Maxflow.add_edge: self-loop")
    (fun () -> F.add_edge n ~src:0 ~dst:0 ~cap:1);
  Alcotest.check_raises "source=sink"
    (Invalid_argument "Maxflow.max_flow: source = sink") (fun () ->
      ignore (F.max_flow n ~source:0 ~sink:0))

(* ---------- properties ---------- *)

(* Random small DAG via forward edges. *)
let arb_dag =
  let gen =
    QCheck.Gen.(
      int_range 2 10 >>= fun n ->
      list_size (int_range 0 (n * 2)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun raw ->
      let edges =
        List.filter_map (fun (a, b) -> if a < b then Some (a, b) else None) raw
      in
      return (n, edges))
  in
  QCheck.make gen ~print:(fun (n, e) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) e)))

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:300 arb_dag
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let order = Dag.topological_order g in
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.for_all (fun (a, b) -> pos.(a) < pos.(b)) edges)

let prop_ancestors_dual_descendants =
  QCheck.Test.make ~name:"v in descendants(u) iff u in ancestors(v)" ~count:200 arb_dag
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> List.mem v (Dag.descendants g u) = List.mem u (Dag.ancestors g v))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* The order a layer's list schedule once took: re-index the kept vertices
   densely, build their induced subgraph, order it and map the ids back. *)
let induced_subgraph_order g keep =
  let n = G.vertex_count g in
  let new_of_old = Array.make n (-1) in
  let old_of_new = ref [] in
  for v = 0 to n - 1 do
    if keep v then begin
      new_of_old.(v) <- List.length !old_of_new;
      old_of_new := v :: !old_of_new
    end
  done;
  let old_of_new = Array.of_list (List.rev !old_of_new) in
  let sub_edges =
    List.filter_map
      (fun (u, v) ->
        if new_of_old.(u) >= 0 && new_of_old.(v) >= 0 then
          Some (new_of_old.(u), new_of_old.(v))
        else None)
      (G.edges g)
  in
  let sub = G.of_edges (Array.length old_of_new) sub_edges in
  List.map (fun v -> old_of_new.(v)) (Dag.topological_order sub)

(* A random DAG with its vertices renamed by a random permutation, so that
   ids no longer follow a topological order, and a random vertex subset. *)
let arb_dag_subset =
  let gen =
    QCheck.Gen.(
      QCheck.gen arb_dag >>= fun (n, edges) ->
      shuffle_l (List.init n Fun.id) >>= fun perm ->
      list_repeat n bool >>= fun mask ->
      let perm = Array.of_list perm in
      let rename (a, b) = (perm.(a), perm.(b)) in
      return (n, List.map rename edges, Array.of_list mask))
  in
  QCheck.make gen ~print:(fun (n, e, mask) ->
      Printf.sprintf "%s keep=%s"
        QCheck.Print.(pair int (list (pair int int)) (n, e))
        (String.concat ""
           (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask))))

let prop_subset_order_matches_induced_subgraph =
  QCheck.Test.make ~name:"subset topological order = induced-subgraph order" ~count:300
    arb_dag_subset (fun (n, edges, mask) ->
      let g = G.of_edges n edges in
      let keep = Array.get mask in
      Dag.topological_order ~keep g = induced_subgraph_order g keep)

let arb_digraph =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      list_size (int_range 0 (n * 2)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun raw -> return (n, List.filter (fun (a, b) -> a <> b) raw))
  in
  QCheck.make gen ~print:QCheck.Print.(pair int (list (pair int int)))

let prop_order_or_cycle =
  QCheck.Test.make ~name:"topological order, or a real cycle" ~count:300 arb_digraph
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      match Dag.topological_order g with
      | order ->
        let pos = Array.make n 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.length order = n && List.for_all (fun (a, b) -> pos.(a) < pos.(b)) edges
      | exception Dag.Cycle cyc -> is_cycle g cyc)

(* Random flow network: max-flow equals brute-force min-cut capacity. *)
let arb_network =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      list_size (int_range 1 12)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 10))
      >>= fun edges -> return (n, edges))
  in
  QCheck.make gen ~print:(fun (n, e) ->
      Printf.sprintf "n=%d %s" n
        (String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "%d-%d:%d" a b c) e)))

let brute_force_min_cut n edges ~source ~sink =
  let best = ref max_int in
  let subsets = 1 lsl n in
  for mask = 0 to subsets - 1 do
    if mask land (1 lsl source) <> 0 && mask land (1 lsl sink) = 0 then begin
      let cap =
        List.fold_left
          (fun acc (a, b, c) ->
            if a <> b && mask land (1 lsl a) <> 0 && mask land (1 lsl b) = 0 then acc + c
            else acc)
          0 edges
      in
      if cap < !best then best := cap
    end
  done;
  !best

let prop_maxflow_equals_mincut =
  QCheck.Test.make ~name:"max flow = brute-force min cut" ~count:300 arb_network
    (fun (n, edges) ->
      let net = F.create n in
      List.iter (fun (a, b, c) -> if a <> b then F.add_edge net ~src:a ~dst:b ~cap:c) edges;
      let flow = F.max_flow net ~source:0 ~sink:(n - 1) in
      flow = brute_force_min_cut n edges ~source:0 ~sink:(n - 1))

let prop_both_cuts_same_value =
  QCheck.Test.make ~name:"nearest-sink cut has the same value" ~count:200 arb_network
    (fun (n, edges) ->
      let mk () =
        let net = F.create n in
        List.iter
          (fun (a, b, c) -> if a <> b then F.add_edge net ~src:a ~dst:b ~cap:c)
          edges;
        net
      in
      let flow = F.max_flow (mk ()) ~source:0 ~sink:(n - 1) in
      let value, side = F.min_cut_nearest_sink (mk ()) ~source:0 ~sink:(n - 1) in
      (* and the reported side is a valid cut of that capacity *)
      value = flow
      && cut_capacity edges side = value
      && side.(0)
      && not side.(n - 1))

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "flowgraph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "errors" `Quick test_digraph_errors;
          Alcotest.test_case "persistent add_edge" `Quick test_digraph_persistent;
          Alcotest.test_case "edges order" `Quick test_digraph_edges_order;
        ] );
      ( "dag",
        [
          Alcotest.test_case "topological order" `Quick test_topo_order;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "descendants/ancestors" `Quick test_descendants_ancestors;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "topological order over a subset" `Quick test_topo_subset;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "CLRS network" `Quick test_maxflow_clrs;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "parallel edges" `Quick test_maxflow_parallel_edges;
          Alcotest.test_case "rerun resets flow" `Quick test_maxflow_rerun;
          Alcotest.test_case "min cut value and side" `Quick test_mincut_value_and_side;
          Alcotest.test_case "nearest-sink cut" `Quick test_mincut_nearest_sink;
          Alcotest.test_case "errors" `Quick test_maxflow_errors;
        ] );
      ( "props",
        qsuite
          [
            prop_topo_respects_edges;
            prop_ancestors_dual_descendants;
            prop_subset_order_matches_induced_subgraph;
            prop_order_or_cycle;
            prop_maxflow_equals_mincut;
            prop_both_cuts_same_value;
          ] );
    ]
