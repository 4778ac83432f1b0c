(* Tests for binding rules, transportation estimation, the greedy list
   scheduler, schedule validation and the hybrid-schedule runtime
   executor. *)

open Microfluidics
open Components
module LS = Cohls.List_scheduler
module T = Cohls.Transport

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int

let det ?container ?capacity ?(accessories = []) a name minutes =
  Assay.add_operation a ?container ?capacity ~accessories
    ~duration:(Operation.Fixed minutes) name

let indet ?(accessories = []) a name minutes =
  Assay.add_operation a ~accessories
    ~duration:(Operation.Indeterminate { min_minutes = minutes }) name

(* ---------- binding rules ---------- *)

let mixer =
  Device.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Small
    ~accessories:[ Accessory.Pump; Accessory.Sieve_valve ]

let test_component_oriented_rule () =
  let washing =
    Operation.make ~id:0 ~accessories:[ Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 5) "wash"
  in
  check bool "washing on mixer (superset)" true
    (Cohls.Binding.op_fits Cohls.Binding.Component_oriented washing mixer);
  check bool "exact rule refuses" false
    (Cohls.Binding.op_fits Cohls.Binding.Exact_signature washing mixer)

let test_exact_rule_matches_resolved () =
  let wash =
    Operation.make ~id:0 ~accessories:[ Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 5) "wash"
  in
  (* resolved: chamber/tiny{s} *)
  let exact_dev =
    Device.make ~id:1 ~container:Container.Chamber ~capacity:Capacity.Tiny
      ~accessories:[ Accessory.Sieve_valve ]
  in
  check bool "exact match accepted" true
    (Cohls.Binding.op_fits Cohls.Binding.Exact_signature wash exact_dev);
  check bool "component rule also accepts" true
    (Cohls.Binding.op_fits Cohls.Binding.Component_oriented wash exact_dev)

let test_minimal_device () =
  let big_mix =
    Operation.make ~id:0 ~capacity:Capacity.Large ~duration:(Operation.Fixed 5) "m"
  in
  let d = Cohls.Binding.minimal_device big_mix ~id:3 in
  (* a large capacity forces a ring even without a container spec *)
  check bool "ring" true (Container.equal d.Device.container Container.Ring);
  check bool "large" true (Capacity.equal d.Device.capacity Capacity.Large);
  let plain = Operation.make ~id:1 ~duration:(Operation.Fixed 5) "p" in
  let d2 = Cohls.Binding.minimal_device plain ~id:4 in
  check bool "cheapest is tiny chamber" true
    (Container.equal d2.Device.container Container.Chamber
     && Capacity.equal d2.Device.capacity Capacity.Tiny)

let test_component_rule_superset_of_exact () =
  (* any binding legal under the exact rule is legal under ours *)
  let ops =
    [
      Operation.make ~id:0 ~duration:(Operation.Fixed 1) "a";
      Operation.make ~id:1 ~container:Container.Ring ~accessories:[ Accessory.Pump ]
        ~duration:(Operation.Fixed 1) "b";
      Operation.make ~id:2 ~capacity:Capacity.Medium
        ~accessories:[ Accessory.Heating_pad ] ~duration:(Operation.Fixed 1) "c";
    ]
  in
  List.iter
    (fun o ->
      let d = Cohls.Binding.minimal_device o ~id:9 in
      check bool "exact implies component" true
        ((not (Cohls.Binding.op_fits Cohls.Binding.Exact_signature o d))
         || Cohls.Binding.op_fits Cohls.Binding.Component_oriented o d))
    ops

(* ---------- transport ---------- *)

let test_progression_terms () =
  check int_t "term 0" 2 (T.term 0);
  check int_t "term 4" 10 (T.term 4);
  check int_t "term 2" 6 (T.term 2);
  check int_t "clamped low" 2 (T.term (-3));
  check int_t "clamped high" 10 (T.term 99)

let test_transport_constant () =
  let t = T.constant ~op_count:3 7 in
  check int_t "all ops" 7 (T.time t 2);
  Alcotest.check_raises "negative" (Invalid_argument "Transport.constant: negative time")
    (fun () -> ignore (T.constant ~op_count:1 (-1)))

let test_transport_refine () =
  (* op 0 -> op 1 cross-device on the hottest path; op 1 -> op 2 same device;
     op 3 has no children *)
  let binding = function 0 -> Some 10 | 1 -> Some 11 | 2 -> Some 11 | _ -> Some 12 in
  let children = function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [] in
  let path_usage = [ ((10, 11), 9); ((11, 12), 1) ] in
  let t = T.refine ~op_count:4 ~binding ~children ~path_usage in
  check int_t "hottest path -> fastest term" 2 (T.time t 0);
  check int_t "same device -> zero" 0 (T.time t 1);
  check int_t "no children -> zero" 0 (T.time t 2)

let test_transport_refine_unbound () =
  let t =
    T.refine ~op_count:2
      ~binding:(fun _ -> None)
      ~children:(fun _ -> [])
      ~path_usage:[]
  in
  check int_t "unbound keeps slowest" 10 (T.time t 0)

let test_transport_of_layout () =
  let usage = [ ((0, 1), 9); ((1, 2), 1) ] in
  let layout = Layout.place ~device_ids:[ 0; 1; 2 ] ~path_usage:usage in
  let binding = function 0 -> Some 0 | 1 -> Some 1 | _ -> Some 2 in
  let children = function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [] in
  let t = T.of_layout ~op_count:3 ~binding ~children ~layout in
  (* adjacent hot pair is at distance 1 -> fastest bucket *)
  check int_t "hot pair fast" 2 (T.time t 0);
  check bool "cold pair not faster" true (T.time t 1 >= T.time t 0)

(* ---------- list scheduler ---------- *)

let schedule assay ~rule ~max_devices =
  let layering = Cohls.Layering.compute assay in
  let next = ref 0 in
  let fresh_id () = let i = !next in incr next; i in
  let outcomes =
    Array.map
      (fun layer ->
        LS.schedule_layer
          {
            Cohls.Layer_problem.ops = Assay.operations assay;
            graph = Assay.dependency_graph assay;
            layer;
            layer_of_op = layering.Cohls.Layering.layer_of_op;
            bound_before = (fun _ -> None);
            available = [];
            rule;
            max_devices;
            transport = (fun _ -> 2);
            cost = Cost.default;
            weights = Cohls.Schedule.default_weights;
            routed = (fun _ _ -> false);
            device_penalty = (fun _ -> 0);
          }
          ~fresh_id)
      layering.Cohls.Layering.layers
  in
  (layering, outcomes)

let test_list_scheduler_chain () =
  let a = Assay.create ~name:"chain" in
  let x = det a "x" 10 in
  let y = det a "y" 20 in
  Assay.add_dependency a ~parent:x ~child:y;
  let _, outcomes = schedule a ~rule:Cohls.Binding.Component_oriented ~max_devices:5 in
  let entries = outcomes.(0).LS.entries in
  check int_t "two entries" 2 (List.length entries);
  let e_of op = List.find (fun e -> e.Cohls.Schedule.op = op) entries in
  check int_t "x starts at 0" 0 (e_of x).Cohls.Schedule.start;
  (* y waits for x's 10 minutes plus 2 transport *)
  check int_t "y starts at 12" 12 (e_of y).Cohls.Schedule.start;
  (* same requirements: the chain shares one device *)
  check int_t "same device" (e_of x).Cohls.Schedule.device (e_of y).Cohls.Schedule.device;
  check int_t "makespan" 34 (Cohls.Schedule.fixed_makespan_of outcomes.(0).LS.entries)

let test_list_scheduler_parallelism () =
  let a = Assay.create ~name:"par" in
  for i = 0 to 3 do
    ignore (det a (Printf.sprintf "p%d" i) 30)
  done;
  let _, outcomes = schedule a ~rule:Cohls.Binding.Component_oriented ~max_devices:4 in
  (* four independent long ops and enough budget: all run in parallel *)
  check int_t "makespan 32" 32 (Cohls.Schedule.fixed_makespan_of outcomes.(0).LS.entries);
  check int_t "four devices" 4 (List.length outcomes.(0).LS.created)

let test_list_scheduler_cap () =
  let a = Assay.create ~name:"cap" in
  for i = 0 to 3 do
    ignore (det a (Printf.sprintf "p%d" i) 30)
  done;
  let _, outcomes = schedule a ~rule:Cohls.Binding.Component_oriented ~max_devices:2 in
  check int_t "only two devices" 2 (List.length outcomes.(0).LS.created);
  check bool "serialised" true ((Cohls.Schedule.fixed_makespan_of outcomes.(0).LS.entries) >= 64)

let test_list_scheduler_no_device () =
  let a = Assay.create ~name:"nodev" in
  ignore (det a "x" 5);
  ignore (det ~accessories:[ Accessory.Optical_system ] a "y" 5);
  let run () = ignore (schedule a ~rule:Cohls.Binding.Exact_signature ~max_devices:1) in
  (* one device cap but two distinct signatures *)
  (try
     run ();
     Alcotest.fail "expected No_device"
   with LS.No_device _ -> ())

let test_indeterminate_last_and_distinct () =
  let a = Assay.create ~name:"ind" in
  let _ = det a "d1" 10 in
  let _ = det a "d2" 10 in
  let i1 = indet a "i1" 5 in
  let i2 = indet a "i2" 5 in
  let _, outcomes = schedule a ~rule:Cohls.Binding.Component_oriented ~max_devices:6 in
  let entries = outcomes.(0).LS.entries in
  let e_of op = List.find (fun e -> e.Cohls.Schedule.op = op) entries in
  check bool "indets on distinct devices" true
    ((e_of i1).Cohls.Schedule.device <> (e_of i2).Cohls.Schedule.device);
  (* (14): every op starts no later than each indet's minimum end *)
  List.iter
    (fun e ->
      List.iter
        (fun i ->
          check bool "(14)" true
            (e.Cohls.Schedule.start
             <= (e_of i).Cohls.Schedule.start + (e_of i).Cohls.Schedule.min_duration))
        [ i1; i2 ])
    entries

(* validity of greedy schedules on random assays, via the full validator *)
let prop_greedy_schedules_validate =
  let arb =
    QCheck.make
      QCheck.Gen.(pair (int_range 1 99999) (int_range 2 30))
      ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
  in
  QCheck.Test.make ~name:"greedy synthesis validates on random assays" ~count:100 arb
    (fun (seed, n) ->
      let params =
        { Assays.Random_assay.default_params with Assays.Random_assay.op_count = n }
      in
      let a = Assays.Random_assay.generate ~seed params in
      match Cohls.Synthesis.run a with
      | r -> Cohls.Schedule.validate r.Cohls.Synthesis.final = Ok ()
      | exception LS.No_device _ -> QCheck.assume_fail ())

(* ---------- runtime executor ---------- *)

let test_runtime_deterministic () =
  let a = Assay.create ~name:"rt" in
  let i = indet a "i" 10 in
  let d = det a "d" 5 in
  Assay.add_dependency a ~parent:i ~child:d;
  let r = Cohls.Synthesis.run a in
  let oracle = Cohls.Runtime.deterministic_oracle ~extra:7 a in
  (match Cohls.Runtime.execute r.Cohls.Synthesis.final oracle with
   | Ok trace ->
     (* layer 0 runs i for 10+7 plus transport; fixed part assumed 10+tr *)
     let wait0 = List.assoc 0 trace.Cohls.Runtime.waits in
     check int_t "waited 7 extra" 7 wait0;
     check bool "total >= fixed" true
       (trace.Cohls.Runtime.total_minutes
        >= Cohls.Schedule.total_fixed_minutes r.Cohls.Synthesis.final);
     check bool "events sorted" true
       (let rec sorted = function
          | a :: (b :: _ as rest) -> a.Cohls.Runtime.time <= b.Cohls.Runtime.time && sorted rest
          | [ _ ] | [] -> true
        in
        sorted trace.Cohls.Runtime.events);
     check int_t "start+finish per op" (2 * Assay.operation_count a)
       (List.length trace.Cohls.Runtime.events)
   | Error e -> Alcotest.fail e);
  ignore (i, d)

let test_runtime_zero_extra_matches_fixed () =
  let a = Assays.Gene_expression.base () in
  let r = Cohls.Synthesis.run a in
  let oracle = Cohls.Runtime.deterministic_oracle ~extra:0 a in
  match Cohls.Runtime.execute r.Cohls.Synthesis.final oracle with
  | Ok trace ->
    check int_t "no waiting: total = fixed"
      (Cohls.Schedule.total_fixed_minutes r.Cohls.Synthesis.final)
      trace.Cohls.Runtime.total_minutes
  | Error e -> Alcotest.fail e

let test_runtime_bad_oracle () =
  let a = Assays.Gene_expression.base () in
  let r = Cohls.Synthesis.run a in
  match Cohls.Runtime.execute r.Cohls.Synthesis.final (fun _ -> 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oracle below minimum must be rejected"

let test_seeded_oracle_reproducible () =
  let a = Assays.Gene_expression.base () in
  let o1 = Cohls.Runtime.seeded_oracle ~seed:42 ~max_extra:10 a in
  let o2 = Cohls.Runtime.seeded_oracle ~seed:42 ~max_extra:10 a in
  let o3 = Cohls.Runtime.seeded_oracle ~seed:43 ~max_extra:10 a in
  check int_t "same seed same value" (o1 0) (o2 0);
  check bool "within range" true
    (let ops = Assay.operations a in
     let base = Operation.min_duration ops.(0) in
     o3 0 >= base && o3 0 <= base + 10)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "scheduling"
    [
      ( "binding",
        [
          Alcotest.test_case "component-oriented rule" `Quick test_component_oriented_rule;
          Alcotest.test_case "exact-signature rule" `Quick test_exact_rule_matches_resolved;
          Alcotest.test_case "minimal device" `Quick test_minimal_device;
          Alcotest.test_case "component rule is a superset" `Quick
            test_component_rule_superset_of_exact;
        ] );
      ( "transport",
        [
          Alcotest.test_case "progression terms" `Quick test_progression_terms;
          Alcotest.test_case "constant" `Quick test_transport_constant;
          Alcotest.test_case "refine by usage" `Quick test_transport_refine;
          Alcotest.test_case "refine unbound" `Quick test_transport_refine_unbound;
          Alcotest.test_case "refine by layout" `Quick test_transport_of_layout;
        ] );
      ( "list-scheduler",
        [
          Alcotest.test_case "dependent chain" `Quick test_list_scheduler_chain;
          Alcotest.test_case "parallelism" `Quick test_list_scheduler_parallelism;
          Alcotest.test_case "device cap serialises" `Quick test_list_scheduler_cap;
          Alcotest.test_case "no device raises" `Quick test_list_scheduler_no_device;
          Alcotest.test_case "indeterminates last and distinct" `Quick
            test_indeterminate_last_and_distinct;
        ] );
      ("scheduler-props", qsuite [ prop_greedy_schedules_validate ]);
      ( "runtime",
        [
          Alcotest.test_case "deterministic oracle" `Quick test_runtime_deterministic;
          Alcotest.test_case "zero extra = fixed part" `Quick
            test_runtime_zero_extra_matches_fixed;
          Alcotest.test_case "bad oracle rejected" `Quick test_runtime_bad_oracle;
          Alcotest.test_case "seeded oracle reproducible" `Quick
            test_seeded_oracle_reproducible;
        ] );
    ]
