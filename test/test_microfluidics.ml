(* Tests for the microfluidic domain model: components, general devices,
   component-oriented operations, assays, cost tables, chip inventories and
   the grid layout estimator. *)

open Microfluidics
open Components

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let str = Alcotest.string

(* ---------- components ---------- *)

let test_capacity_order () =
  check bool "large > tiny" true (Capacity.compare Capacity.Large Capacity.Tiny > 0);
  check bool "medium > small" true (Capacity.compare Capacity.Medium Capacity.Small > 0);
  check bool "equal" true (Capacity.equal Capacity.Small Capacity.Small);
  check int_t "all four" 4 (List.length Capacity.all)

let test_container_capacities () =
  check bool "ring large ok" true (Container.capacity_allowed Container.Ring Capacity.Large);
  check bool "ring tiny not" false (Container.capacity_allowed Container.Ring Capacity.Tiny);
  check bool "chamber large not" false
    (Container.capacity_allowed Container.Chamber Capacity.Large);
  check bool "chamber tiny ok" true
    (Container.capacity_allowed Container.Chamber Capacity.Tiny);
  check int_t "ring classes" 3 (List.length (Container.allowed_capacities Container.Ring))

let test_capacity_volumes () =
  check bool "2 nl is tiny" true (Capacity.of_volume 2.0 = Some Capacity.Tiny);
  check bool "10 nl is small" true (Capacity.of_volume 10.0 = Some Capacity.Small);
  check bool "50 nl is medium" true (Capacity.of_volume 50.0 = Some Capacity.Medium);
  check bool "300 nl is large" true (Capacity.of_volume 300.0 = Some Capacity.Large);
  check bool "500 nl still large (inclusive top)" true
    (Capacity.of_volume 500.0 = Some Capacity.Large);
  check bool "too big" true (Capacity.of_volume 1000.0 = None);
  check bool "non-positive" true (Capacity.of_volume 0.0 = None);
  (* ranges tile without gaps *)
  List.iter
    (fun c ->
      let lo, hi = Capacity.volume_range c in
      check bool "lo < hi" true (lo < hi);
      check bool "lo maps to c" true (Capacity.of_volume lo = Some c);
      if c <> Capacity.Large then
        check bool "hi maps to next class" true (Capacity.of_volume hi <> Some c))
    Capacity.all

let test_accessory_codes () =
  let codes = List.map Accessory.short_code Accessory.all in
  check (Alcotest.list str) "paper's p h o s c" [ "p"; "h"; "o"; "s"; "c" ] codes;
  let s = Accessory.set_of_list [ Accessory.Pump; Accessory.Pump; Accessory.Sieve_valve ] in
  check int_t "set dedupes" 2 (Accessory.Set.cardinal s)

(* The bitmask accessory set against a [Stdlib.Set.Make] reference, on
   every pair of the 32 subsets. *)
module Ref_set = Set.Make (struct
  type t = Accessory.t

  let compare = Stdlib.compare
end)

let test_accessory_set_reference () =
  let subsets =
    List.init 32 (fun bits ->
        List.filteri (fun i _ -> bits land (1 lsl i) <> 0) Accessory.all)
  in
  let accs = Alcotest.list (Alcotest.of_pp Accessory.pp) in
  let sign x = compare x 0 in
  List.iter
    (fun la ->
      let a = Accessory.Set.of_list (List.rev la) and ra = Ref_set.of_list la in
      check accs "elements" (Ref_set.elements ra) (Accessory.Set.elements a);
      check accs "fold order" (Ref_set.fold List.cons ra []) (Accessory.Set.fold List.cons a []);
      let seen = ref [] in
      Accessory.Set.iter (fun x -> seen := x :: !seen) a;
      check accs "iter order" (Ref_set.fold List.cons ra []) !seen;
      check int_t "cardinal" (Ref_set.cardinal ra) (Accessory.Set.cardinal a);
      check bool "is_empty" (Ref_set.is_empty ra) (Accessory.Set.is_empty a);
      List.iter
        (fun x ->
          check bool "mem" (Ref_set.mem x ra) (Accessory.Set.mem x a);
          check accs "add" (Ref_set.elements (Ref_set.add x ra))
            (Accessory.Set.elements (Accessory.Set.add x a)))
        Accessory.all;
      List.iter
        (fun lb ->
          let b = Accessory.Set.of_list lb and rb = Ref_set.of_list lb in
          check bool "subset" (Ref_set.subset ra rb) (Accessory.Set.subset a b);
          check bool "equal" (Ref_set.equal ra rb) (Accessory.Set.equal a b);
          check accs "union" (Ref_set.elements (Ref_set.union ra rb))
            (Accessory.Set.elements (Accessory.Set.union a b));
          check int_t "compare sign" (sign (Ref_set.compare ra rb))
            (sign (Accessory.Set.compare a b)))
        subsets)
    subsets

(* ---------- device ---------- *)

let test_device_make () =
  let d =
    Device.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Medium
      ~accessories:[ Accessory.Pump ]
  in
  check str "signature" "ring/medium{p}" (Device.signature d);
  Alcotest.check_raises "ring tiny rejected"
    (Invalid_argument "Device.make: ring cannot have tiny capacity") (fun () ->
      ignore
        (Device.make ~id:1 ~container:Container.Ring ~capacity:Capacity.Tiny
           ~accessories:[]))

(* ---------- operation ---------- *)

let mixer_device =
  Device.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Medium
    ~accessories:[ Accessory.Pump; Accessory.Sieve_valve ]

let test_operation_compat () =
  (* the §3.2 example: o1 = ring + {sieve, pump}; o2 = any + {sieve} *)
  let o1 =
    Operation.make ~id:0 ~container:Container.Ring
      ~accessories:[ Accessory.Sieve_valve; Accessory.Pump ]
      ~duration:(Operation.Fixed 5) "o1"
  in
  let o2 =
    Operation.make ~id:1 ~accessories:[ Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 5) "o2"
  in
  check bool "o1 fits mixer" true (Operation.compatible_with_device o1 mixer_device);
  check bool "o2 fits mixer too" true (Operation.compatible_with_device o2 mixer_device)

let test_operation_capacity_match () =
  let o =
    Operation.make ~id:0 ~capacity:Capacity.Large ~duration:(Operation.Fixed 5) "big"
  in
  check bool "large op needs large device" false
    (Operation.compatible_with_device o mixer_device);
  let big =
    Device.make ~id:1 ~container:Container.Ring ~capacity:Capacity.Large
      ~accessories:[]
  in
  check bool "fits large ring" true (Operation.compatible_with_device o big)

let test_operation_validation () =
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Operation.make: non-positive duration") (fun () ->
      ignore (Operation.make ~id:0 ~duration:(Operation.Fixed 0) "bad"));
  Alcotest.check_raises "zero min duration"
    (Invalid_argument "Operation.make: non-positive minimum duration") (fun () ->
      ignore
        (Operation.make ~id:0 ~duration:(Operation.Indeterminate { min_minutes = 0 }) "bad"));
  Alcotest.check_raises "ring/tiny op"
    (Invalid_argument "Operation.make: ring cannot have tiny capacity") (fun () ->
      ignore
        (Operation.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Tiny
           ~duration:(Operation.Fixed 1) "bad"))

let test_operation_duration () =
  let det = Operation.make ~id:0 ~duration:(Operation.Fixed 7) "d" in
  let ind = Operation.make ~id:1 ~duration:(Operation.Indeterminate { min_minutes = 3 }) "i" in
  check bool "det" false (Operation.is_indeterminate det);
  check bool "ind" true (Operation.is_indeterminate ind);
  check int_t "det dur" 7 (Operation.min_duration det);
  check int_t "ind min dur" 3 (Operation.min_duration ind)

let test_requirement_signature () =
  let o =
    Operation.make ~id:0 ~container:Container.Chamber ~capacity:Capacity.Small
      ~accessories:[ Accessory.Optical_system; Accessory.Pump ]
      ~duration:(Operation.Fixed 1) "sig"
  in
  check str "signature" "chamber/small{po}" (Operation.requirement_signature o);
  let unspecified = Operation.make ~id:1 ~duration:(Operation.Fixed 1) "u" in
  check str "wildcards" "*/*{}" (Operation.requirement_signature unspecified)

(* ---------- assay ---------- *)

let test_assay_build () =
  let a = Assay.create ~name:"t" in
  let x = Assay.add_operation a ~duration:(Operation.Fixed 5) "x" in
  let y = Assay.add_operation a ~duration:(Operation.Fixed 5) "y" in
  Assay.add_dependency a ~parent:x ~child:y;
  check int_t "count" 2 (Assay.operation_count a);
  check (Alcotest.list int_t) "children" [ y ] (Assay.children a x);
  check (Alcotest.list int_t) "parents" [ x ] (Assay.parents a y);
  check bool "validate" true (Assay.validate a = Ok ())

let test_assay_cycle_rejected () =
  let a = Assay.create ~name:"t" in
  let x = Assay.add_operation a ~duration:(Operation.Fixed 5) "x" in
  let y = Assay.add_operation a ~duration:(Operation.Fixed 5) "y" in
  Assay.add_dependency a ~parent:x ~child:y;
  Alcotest.check_raises "cycle"
    (Invalid_argument "Assay.add_dependency: edge would close a cycle") (fun () ->
      Assay.add_dependency a ~parent:y ~child:x);
  Alcotest.check_raises "self"
    (Invalid_argument "Assay.add_dependency: self-dependency") (fun () ->
      Assay.add_dependency a ~parent:x ~child:x)

let test_assay_replicate () =
  let a = Assay.create ~name:"t" in
  let x = Assay.add_operation a ~duration:(Operation.Fixed 5) "x" in
  let y = Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 2 }) "y" in
  Assay.add_dependency a ~parent:x ~child:y;
  let r = Assay.replicate a ~copies:3 in
  check int_t "ops tripled" 6 (Assay.operation_count r);
  check int_t "indeterminates tripled" 3 (Assay.indeterminate_count r);
  (* instances are independent *)
  check (Alcotest.list int_t) "no cross deps" [ 3 ] (Assay.children r 2);
  check bool "still valid" true (Assay.validate r = Ok ());
  Alcotest.check_raises "bad copies"
    (Invalid_argument "Assay.replicate: copies must be positive") (fun () ->
      ignore (Assay.replicate a ~copies:0))

(* [replicate] builds its graph in one go, without per-edge cycle checks;
   it must match an assay built one checked dependency at a time, and
   still reject a later edge that closes a cycle. *)
let test_assay_replicate_graph () =
  let base = Assays.Gene_expression.base () in
  let n = Assay.operation_count base and copies = 5 in
  let base_edges = Flowgraph.Digraph.edges (Assay.dependency_graph base) in
  let r = Assay.replicate base ~copies in
  let expected =
    List.concat_map
      (fun k -> List.map (fun (p, c) -> (p + (k * n), c + (k * n))) base_edges)
      (List.init copies Fun.id)
  in
  let one_by_one = Assay.create ~name:"one by one" in
  for _ = 1 to n * copies do
    ignore (Assay.add_operation one_by_one ~duration:(Operation.Fixed 1) "op")
  done;
  List.iter
    (fun (parent, child) -> Assay.add_dependency one_by_one ~parent ~child)
    expected;
  let edges a = Flowgraph.Digraph.edges (Assay.dependency_graph a) in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "same edges as one at a time" (edges one_by_one) (edges r);
  let p, c = List.hd (List.rev expected) in
  Assay.add_dependency r ~parent:p ~child:c;
  check int_t "duplicate edge ignored" (List.length expected)
    (Flowgraph.Digraph.edge_count (Assay.dependency_graph r));
  Alcotest.check_raises "cycle-closing edge"
    (Invalid_argument "Assay.add_dependency: edge would close a cycle") (fun () ->
      Assay.add_dependency r ~parent:c ~child:p)

(* [dependency_graph] hands out the assay's current graph as a value: later
   dependencies do not show in a graph taken before them. *)
let test_assay_graph_values () =
  let a = Assay.create ~name:"t" in
  let x = Assay.add_operation a ~duration:(Operation.Fixed 5) "x" in
  let y = Assay.add_operation a ~duration:(Operation.Fixed 5) "y" in
  let z = Assay.add_operation a ~duration:(Operation.Fixed 5) "z" in
  Assay.add_dependency a ~parent:x ~child:y;
  let before = Assay.dependency_graph a in
  Assay.add_dependency a ~parent:y ~child:z;
  let after = Assay.dependency_graph a in
  let pairs = Alcotest.list (Alcotest.pair int_t int_t) in
  check pairs "earlier graph unchanged" [ (x, y) ] (Flowgraph.Digraph.edges before);
  check pairs "next graph has the edge" [ (x, y); (y, z) ]
    (Flowgraph.Digraph.edges after);
  let w = Assay.add_operation a ~duration:(Operation.Fixed 5) "w" in
  Assay.add_dependency a ~parent:z ~child:w;
  check int_t "earlier graph keeps its vertices" 3
    (Flowgraph.Digraph.vertex_count after);
  check (Alcotest.list int_t) "new operation's parents" [ z ] (Assay.parents a w)

(* ---------- derived assays ---------- *)

let fixed name = Operation.make ~id:0 ~duration:(Operation.Fixed 5) name

let test_assay_derive_size_mismatch () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Assay.derive: graph size differs from the operation count")
    (fun () ->
      ignore
        (Assay.derive ~name:"d" [| fixed "x"; fixed "y" |]
           (Flowgraph.Digraph.of_edges 3 [])))

let test_assay_derive_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Assay.derive: graph has a cycle")
    (fun () ->
      ignore
        (Assay.derive ~name:"d"
           [| fixed "x"; fixed "y"; fixed "z" |]
           (Flowgraph.Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ])))

let test_assay_derive_renumbers () =
  let source = Assays.Gene_expression.base () in
  let picked = [| 4; 1; 6 |] in
  let g = Flowgraph.Digraph.of_edges 3 [ (1, 0) ] in
  let d =
    Assay.derive ~name:"picked" (Array.map (Assay.operation source) picked) g
  in
  check str "name" "picked" (Assay.name d);
  check (Alcotest.list int_t) "ids renumbered in array order" [ 0; 1; 2 ]
    (Array.to_list (Array.map (fun (o : Operation.t) -> o.Operation.id) (Assay.operations d)));
  Array.iteri
    (fun i orig ->
      check str "name kept" (Assay.operation source orig).Operation.name
        (Assay.operation d i).Operation.name)
    picked;
  check bool "graph shared" true (Assay.dependency_graph d == g);
  check (Alcotest.list int_t) "parents" [ 1 ] (Assay.parents d 0)

let test_static_baseline_shares_graph () =
  let source = Assays.Gene_expression.testcase () in
  let s = Cohls.Static_baseline.static_schedule source in
  let det = s.Cohls.Schedule.assay in
  check bool "same graph value" true
    (Assay.dependency_graph det == Assay.dependency_graph source);
  check int_t "indeterminacy erased" 0 (Assay.indeterminate_count det)

(* The builder route [derive] replaced: every kept operation re-added field
   by field, every induced edge re-added through the cycle check. *)
let rebuild_reference a keep =
  let sub = Assay.create ~name:"reference" in
  let index = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace index o i) keep;
  List.iter
    (fun o ->
      let (op : Operation.t) = Assay.operation a o in
      ignore
        (Assay.add_operation sub ?container:op.container ?capacity:op.capacity
           ~accessories:(Accessory.Set.elements op.accessories)
           ~duration:op.duration op.name))
    keep;
  List.iter
    (fun o ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt index p with
          | Some parent -> Assay.add_dependency sub ~parent ~child:(Hashtbl.find index o)
          | None -> ())
        (Assay.parents a o))
    keep;
  sub

let derive_induced a keep =
  let index = Array.make (Assay.operation_count a) (-1) in
  List.iteri (fun i o -> index.(o) <- i) keep;
  let edges =
    List.concat
      (List.mapi
         (fun child o ->
           List.filter_map
             (fun p -> if index.(p) >= 0 then Some (index.(p), child) else None)
             (Assay.parents a o))
         keep)
  in
  Assay.derive ~name:"derived"
    (Array.of_list (List.map (Assay.operation a) keep))
    (Flowgraph.Digraph.of_edges (List.length keep) edges)

let op_fields (o : Operation.t) =
  (o.name, o.container, o.capacity, Accessory.Set.elements o.accessories, o.duration)

let prop_derive_matches_rebuild =
  QCheck.Test.make ~count:200 ~name:"derive over an induced subgraph = field-by-field rebuild"
    QCheck.(
      quad (int_range 0 9999) (int_range 1 40) (float_range 0.0 0.5)
        (list_of_size (Gen.return 40) bool))
    (fun (seed, op_count, edge_probability, mask) ->
      let a =
        Assays.Random_assay.generate ~seed
          { Assays.Random_assay.default_params with op_count; edge_probability }
      in
      let keep = List.filteri (fun i _ -> List.nth mask i) (List.init op_count Fun.id) in
      let derived = derive_induced a keep and reference = rebuild_reference a keep in
      Array.map op_fields (Assay.operations derived)
      = Array.map op_fields (Assay.operations reference)
      && Flowgraph.Digraph.edges (Assay.dependency_graph derived)
         = Flowgraph.Digraph.edges (Assay.dependency_graph reference))

let test_assay_critical_path () =
  let a = Assay.create ~name:"t" in
  let x = Assay.add_operation a ~duration:(Operation.Fixed 5) "x" in
  let y = Assay.add_operation a ~duration:(Operation.Fixed 7) "y" in
  let z = Assay.add_operation a ~duration:(Operation.Fixed 11) "z" in
  Assay.add_dependency a ~parent:x ~child:y;
  Assay.add_dependency a ~parent:x ~child:z;
  check int_t "critical path" 16 (Assay.critical_path_minutes a)

let test_assay_empty_invalid () =
  let a = Assay.create ~name:"empty" in
  check bool "empty invalid" true (Assay.validate a <> Ok ())

(* ---------- paper test cases ---------- *)

let test_paper_cases_shape () =
  let c1 = Assays.Kinase.testcase () in
  check int_t "case1 ops" 16 (Assay.operation_count c1);
  check int_t "case1 indets" 0 (Assay.indeterminate_count c1);
  let c2 = Assays.Gene_expression.testcase () in
  check int_t "case2 ops" 70 (Assay.operation_count c2);
  check int_t "case2 indets" 10 (Assay.indeterminate_count c2);
  let c3 = Assays.Rt_qpcr.testcase () in
  check int_t "case3 ops" 120 (Assay.operation_count c3);
  check int_t "case3 indets" 20 (Assay.indeterminate_count c3);
  List.iter
    (fun a -> check bool "valid" true (Assay.validate a = Ok ()))
    [ c1; c2; c3 ]

(* ---------- cost ---------- *)

let test_cost_tables () =
  let c = Cost.default in
  check bool "ring medium > chamber medium (area)" true
    (Cost.area c Container.Ring Capacity.Medium
     > Cost.area c Container.Chamber Capacity.Medium);
  check bool "larger costs more" true
    (Cost.area c Container.Ring Capacity.Large > Cost.area c Container.Ring Capacity.Small);
  Alcotest.check_raises "illegal combo"
    (Invalid_argument "Cost.area: capacity not allowed for container") (fun () ->
      ignore (Cost.area c Container.Ring Capacity.Tiny))

let test_cost_device () =
  let c = Cost.default in
  let bare =
    Device.make ~id:0 ~container:Container.Chamber ~capacity:Capacity.Tiny
      ~accessories:[]
  in
  let loaded =
    Device.make ~id:1 ~container:Container.Chamber ~capacity:Capacity.Tiny
      ~accessories:[ Accessory.Pump; Accessory.Optical_system ]
  in
  check bool "accessories add processing" true
    (Cost.device_processing c loaded > Cost.device_processing c bare);
  check int_t "accessories add no area" (Cost.device_area c bare)
    (Cost.device_area c loaded)

(* ---------- chip ---------- *)

let test_chip () =
  let chip = Chip.create () in
  let d0 = Device.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Small ~accessories:[ Accessory.Pump ] in
  let d1 = Device.make ~id:1 ~container:Container.Chamber ~capacity:Capacity.Tiny ~accessories:[] in
  Chip.add_device chip d0;
  Chip.add_device chip d1;
  check int_t "devices" 2 (Chip.device_count chip);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Chip.add_device: duplicate device id") (fun () ->
      Chip.add_device chip d0);
  Chip.note_transport chip ~src:0 ~dst:1;
  Chip.note_transport chip ~src:1 ~dst:0 (* same unordered pair *);
  Chip.note_transport chip ~src:0 ~dst:0 (* same device: ignored *);
  check int_t "one path" 1 (Chip.path_count chip);
  (match Chip.path_usage chip with
   | [ ((0, 1), 2) ] -> ()
   | _ -> Alcotest.fail "expected path (0,1) used twice");
  check bool "has path either way" true
    (Chip.has_path chip 1 0 && Chip.has_path chip 0 1);
  check bool "no path within a device" false (Chip.has_path chip 0 0);
  check bool "area positive" true (Chip.total_area Cost.default chip > 0);
  Alcotest.check_raises "unknown device"
    (Invalid_argument "Chip.note_transport: unknown source device") (fun () ->
      Chip.note_transport chip ~src:9 ~dst:1)

(* ---------- layout ---------- *)

let test_layout_placement () =
  let usage = [ ((0, 1), 10); ((1, 2), 5); ((2, 3), 1) ] in
  let l = Layout.place ~device_ids:[ 0; 1; 2; 3 ] ~path_usage:usage in
  check int_t "grid side" 2 l.Layout.side;
  check int_t "all placed" 4 (List.length l.Layout.placements);
  (* heaviest pair adjacent *)
  (match Layout.path_length l 0 1 with
   | Some len -> check int_t "hot pair adjacent" 1 len
   | None -> Alcotest.fail "missing path length")

let test_layout_single_device () =
  let l = Layout.place ~device_ids:[ 42 ] ~path_usage:[] in
  check int_t "side 1" 1 l.Layout.side;
  check int_t "one placement" 1 (List.length l.Layout.placements)

let () =
  Alcotest.run "microfluidics"
    [
      ( "components",
        [
          Alcotest.test_case "capacity order" `Quick test_capacity_order;
          Alcotest.test_case "capacity volumes" `Quick test_capacity_volumes;
          Alcotest.test_case "container capacities" `Quick test_container_capacities;
          Alcotest.test_case "accessory codes" `Quick test_accessory_codes;
          Alcotest.test_case "accessory set matches Set.Make" `Quick
            test_accessory_set_reference;
        ] );
      ( "device",
        [
          Alcotest.test_case "make/signature" `Quick test_device_make;
        ] );
      ( "operation",
        [
          Alcotest.test_case "compatibility (Fig. 6 example)" `Quick test_operation_compat;
          Alcotest.test_case "capacity matching" `Quick test_operation_capacity_match;
          Alcotest.test_case "validation" `Quick test_operation_validation;
          Alcotest.test_case "durations" `Quick test_operation_duration;
          Alcotest.test_case "requirement signature" `Quick test_requirement_signature;
        ] );
      ( "assay",
        [
          Alcotest.test_case "build" `Quick test_assay_build;
          Alcotest.test_case "cycle rejected" `Quick test_assay_cycle_rejected;
          Alcotest.test_case "replicate" `Quick test_assay_replicate;
          Alcotest.test_case "replicate graph" `Quick test_assay_replicate_graph;
          Alcotest.test_case "graph values" `Quick test_assay_graph_values;
          Alcotest.test_case "derive rejects a size mismatch" `Quick
            test_assay_derive_size_mismatch;
          Alcotest.test_case "derive rejects a cycle" `Quick test_assay_derive_cycle;
          Alcotest.test_case "derive renumbers ids" `Quick test_assay_derive_renumbers;
          Alcotest.test_case "static baseline shares the graph" `Quick
            test_static_baseline_shares_graph;
          QCheck_alcotest.to_alcotest prop_derive_matches_rebuild;
          Alcotest.test_case "critical path" `Quick test_assay_critical_path;
          Alcotest.test_case "empty invalid" `Quick test_assay_empty_invalid;
          Alcotest.test_case "paper cases 16/70/120" `Quick test_paper_cases_shape;
        ] );
      ( "cost",
        [
          Alcotest.test_case "tables" `Quick test_cost_tables;
          Alcotest.test_case "device costs" `Quick test_cost_device;
        ] );
      ("chip", [ Alcotest.test_case "inventory and paths" `Quick test_chip ]);
      ( "layout",
        [
          Alcotest.test_case "placement" `Quick test_layout_placement;
          Alcotest.test_case "single device" `Quick test_layout_single_device;
        ] );
    ]
