(* Tests for the §4 ILP model: construction, constraint structure, warm
   starting from the greedy schedule, solving small instances exactly and
   extracting valid schedules. *)

open Microfluidics
open Components
module IM = Cohls.Ilp_model
module Syn = Cohls.Synthesis

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int

let small_assay () =
  (* wash -> elute chain plus an independent detect: 3 ops, shareable under
     the component-oriented rule *)
  let a = Assay.create ~name:"small" in
  let wash =
    Assay.add_operation a ~accessories:[ Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 10) "wash"
  in
  let elute =
    Assay.add_operation a ~accessories:[ Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 5) "elute"
  in
  let detect =
    Assay.add_operation a ~accessories:[ Accessory.Optical_system ]
      ~duration:(Operation.Fixed 8) "detect"
  in
  Assay.add_dependency a ~parent:wash ~child:elute;
  (a, wash, elute, detect)

let problem_of ?(transport = 2) ?(available = []) ?(max_devices = 3) assay ~rule =
  let layering = Cohls.Layering.compute assay in
  {
    Cohls.Layer_problem.ops = Assay.operations assay;
    graph = Assay.dependency_graph assay;
    layer = layering.Cohls.Layering.layers.(0);
    layer_of_op = layering.Cohls.Layering.layer_of_op;
    bound_before = (fun _ -> None);
    available;
    rule;
    max_devices;
    transport = (fun _ -> transport);
    cost = Cost.default;
    weights = Cohls.Schedule.default_weights;
    routed = (fun _ _ -> false);
    device_penalty = (fun _ -> 0);
  }

let free_slots n = Array.init n (fun i -> IM.Free { id = 100 + i })

let test_build_statistics () =
  let a, _, _, _ = small_assay () in
  let problem = problem_of a ~rule:Cohls.Binding.Component_oriented in
  let built = IM.build problem ~slots:(free_slots 3) in
  let lp = IM.model built in
  check bool "has variables" true (Lp.Model.var_count lp > 20);
  check bool "has constraints" true (Lp.Model.constr_count lp > 20);
  check int_t "horizon = serial sum" (12 + 7 + 10) (IM.horizon built)

let test_build_requires_compatible_slot () =
  let a, _, _, _ = small_assay () in
  let wrong =
    Device.make ~id:0 ~container:Container.Ring ~capacity:Capacity.Small
      ~accessories:[ Accessory.Pump ]
  in
  let problem = problem_of a ~rule:Cohls.Binding.Component_oriented in
  (try
     ignore (IM.build problem ~slots:[| IM.Fixed wrong |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let solve_small rule =
  let a, _, _, _ = small_assay () in
  let problem = problem_of a ~rule in
  let built = IM.build problem ~slots:(free_slots 3) in
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.time_limit = Some 30.0 }
  in
  let result = Lp.Branch_bound.solve ~options (IM.model built) in
  (a, problem, built, result)

let test_solve_and_extract_component () =
  let _, problem, built, result = solve_small Cohls.Binding.Component_oriented in
  check bool "solved" true (result.Lp.Branch_bound.values <> None);
  match result.Lp.Branch_bound.values with
  | None -> Alcotest.fail "no solution"
  | Some values ->
    let entries, devices = IM.extract built ~values in
    check int_t "all ops bound" 3 (List.length entries);
    check bool "at most 2 devices (wash/elute share)" true (List.length devices <= 2);
    (* replay the entries through the schedule validator *)
    let chip = Chip.create () in
    List.iter (fun d -> Chip.add_device chip d) devices;
    List.iter
      (fun (e : Cohls.Schedule.entry) ->
        List.iter
          (fun p ->
            match List.find_opt (fun (pe : Cohls.Schedule.entry) -> pe.Cohls.Schedule.op = p) entries with
            | Some pe when pe.Cohls.Schedule.device <> e.Cohls.Schedule.device ->
              Chip.note_transport chip ~src:pe.Cohls.Schedule.device
                ~dst:e.Cohls.Schedule.device
            | Some _ | None -> ())
          (Flowgraph.Digraph.pred problem.Cohls.Layer_problem.graph e.Cohls.Schedule.op))
      entries;
    let fixed_makespan = Cohls.Schedule.fixed_makespan_of entries in
    check bool "makespan sane" true (fixed_makespan >= 17 && fixed_makespan <= IM.horizon built)

let test_exact_rule_needs_more_devices () =
  let _, _, _, result_c = solve_small Cohls.Binding.Component_oriented in
  let _, _, built_e, result_e = solve_small Cohls.Binding.Exact_signature in
  match (result_c.Lp.Branch_bound.values, result_e.Lp.Branch_bound.values) with
  | Some _, Some values_e ->
    let _, devices_e = IM.extract built_e ~values:values_e in
    (* wash and elute resolve to chamber/tiny{s} so they can still share,
       but detect needs its own device: at least 2 devices *)
    check bool "exact needs >= 2 devices" true (List.length devices_e >= 2)
  | _, _ -> Alcotest.fail "solve failed"

let test_warm_start_feasible () =
  (* The greedy schedule, written as values of the model's variables, must
     satisfy the model exactly: on the small assay, and on layer 0 of the
     first synthesis pass of the paper's assays under both binding rules,
     where created devices, transfers between them and conflicts all occur. *)
  let a, _, _, _ = small_assay () in
  let first_layer assay ~rule =
    problem_of ~transport:Syn.initial_transport
      ~max_devices:Syn.default_config.Syn.max_devices assay ~rule
  in
  let paper =
    [
      ("case1", Assays.Kinase.testcase ());
      ("case2", Assays.Gene_expression.testcase ());
      ("case3", Assays.Rt_qpcr.testcase ());
      ("mda", Assays.Mda.testcase ());
      ("chip", Assays.Chip_assay.testcase ());
    ]
  in
  let inputs =
    ("small", problem_of a ~rule:Cohls.Binding.Component_oriented)
    :: List.concat_map
         (fun (name, assay) ->
           [
             ( name ^ " ours",
               first_layer assay ~rule:Cohls.Binding.Component_oriented );
             ( name ^ " conventional",
               first_layer assay ~rule:Cohls.Binding.Exact_signature );
           ])
         paper
  in
  List.iter
    (fun (name, problem) ->
      let next = ref 0 in
      let fresh_id () = let i = !next in incr next; i in
      let heur = Cohls.List_scheduler.schedule_layer problem ~fresh_id in
      let slots = IM.slots problem heur ~extra_free_slots:1 ~fresh_id in
      let built = IM.build problem ~slots in
      let values = IM.warm_start built heur in
      match
        Lp.Model.check_feasible_exact (IM.model built) (fun v ->
            Numeric.Rat.of_float_approx values.(v))
      with
      | [] -> ()
      | violations ->
        Alcotest.failf "%s: warm start violates %s" name
          (String.concat ", " (List.map fst violations)))
    inputs

let test_indeterminate_constraints () =
  (* one det + one indet op, independent: the ILP must place them on
     distinct-or-ordered devices with the indet last *)
  let a = Assay.create ~name:"ind" in
  let d =
    Assay.add_operation a ~duration:(Operation.Fixed 6) "d"
  in
  let i =
    Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 4 }) "i"
  in
  ignore (d, i);
  let problem = problem_of ~transport:1 a ~rule:Cohls.Binding.Component_oriented in
  let built = IM.build problem ~slots:(free_slots 2) in
  let result = Lp.Branch_bound.solve (IM.model built) in
  match result.Lp.Branch_bound.values with
  | None -> Alcotest.fail "no solution"
  | Some values ->
    let entries, _ = IM.extract built ~values in
    let e_of op = List.find (fun (e : Cohls.Schedule.entry) -> e.Cohls.Schedule.op = op) entries in
    let ed = e_of d and ei = e_of i in
    (* (14): the determinate op starts no later than the indet's min end *)
    check bool "(14)" true
      (ed.Cohls.Schedule.start <= ei.Cohls.Schedule.start + ei.Cohls.Schedule.min_duration);
    (* our strengthened rule: same device -> det fully precedes indet *)
    if ed.Cohls.Schedule.device = ei.Cohls.Schedule.device then
      check bool "det precedes indet on shared device" true
        (ed.Cohls.Schedule.start + ed.Cohls.Schedule.min_duration + ed.Cohls.Schedule.transport
         <= ei.Cohls.Schedule.start)

let test_pruned_matches_unpruned () =
  (* The pruning families (ASAP/ALAP start windows, pair skipping with
     per-pair big-M, free-slot symmetry rows, machine-load cuts) must not
     change the optimal objective — [prune:false] reproduces the full §4
     grid, so the two builds are solved to optimality and compared. *)
  let a, _, _, _ = small_assay () in
  let ind = Assay.create ~name:"ind" in
  let _ = Assay.add_operation ind ~duration:(Operation.Fixed 6) "d" in
  let _ =
    Assay.add_operation ind ~duration:(Operation.Indeterminate { min_minutes = 4 }) "i"
  in
  let cases =
    [
      (problem_of a ~rule:Cohls.Binding.Component_oriented, free_slots 3);
      (problem_of a ~rule:Cohls.Binding.Exact_signature, free_slots 2);
      (problem_of ind ~rule:Cohls.Binding.Component_oriented, free_slots 2);
    ]
  in
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.time_limit = Some 30.0 }
  in
  List.iteri
    (fun i (problem, slots) ->
      let pruned = Lp.Branch_bound.solve ~options (IM.model (IM.build problem ~slots)) in
      let full =
        Lp.Branch_bound.solve ~options
          (IM.model (IM.build ~prune:false problem ~slots))
      in
      check bool
        (Printf.sprintf "case %d: both optimal" i)
        true
        (pruned.Lp.Branch_bound.status = Lp.Branch_bound.Optimal
        && full.Lp.Branch_bound.status = Lp.Branch_bound.Optimal);
      match (pruned.Lp.Branch_bound.objective, full.Lp.Branch_bound.objective) with
      | Some p, Some f ->
        if Float.abs (p -. f) > 1e-6 then
          Alcotest.failf "case %d: pruned %.6g <> unpruned %.6g" i p f
      | _ -> Alcotest.failf "case %d: missing objective" i)
    cases

let test_ilp_engine_end_to_end () =
  (* full synthesis with the ILP engine on the small kinase protocol must
     validate and be no worse than the heuristic on the weighted objective *)
  let assay = Assays.Kinase.base () in
  let ilp_cfg =
    {
      Syn.default_config with
      Syn.engine =
        Cohls.Layer_solver.Ilp
          {
            options =
              {
                Lp.Branch_bound.default_options with
                Lp.Branch_bound.time_limit = Some 5.0;
              };
            extra_free_slots = 1;
          };
      max_devices = 6;
      max_iterations = 1;
    }
  in
  let heur_cfg = { ilp_cfg with Syn.engine = Cohls.Layer_solver.Heuristic } in
  let r_ilp = Syn.run ~config:ilp_cfg assay in
  let r_heur = Syn.run ~config:heur_cfg assay in
  (match Cohls.Schedule.validate r_ilp.Syn.final with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("ilp schedule invalid: " ^ e));
  check bool "ilp no worse (weighted)" true
    (r_ilp.Syn.final_breakdown.Cohls.Schedule.weighted
     <= r_heur.Syn.final_breakdown.Cohls.Schedule.weighted)

let test_ilp_layer_respects_cap_with_inherited () =
  (* Three independent hour-long operations that one inherited device can
     run, and a cap with room for one more device. Parallel devices would
     pay for themselves, so the cap is what stops the ILP — it gets the
     inherited device as a fixed slot and must stay inside the cap. *)
  let a = Assay.create ~name:"parallel" in
  for i = 0 to 2 do
    ignore
      (Assay.add_operation a ~accessories:[ Accessory.Sieve_valve ]
         ~duration:(Operation.Fixed 60) (Printf.sprintf "wash%d" i))
  done;
  let inherited =
    Device.make ~id:0 ~container:Container.Chamber ~capacity:Capacity.Small
      ~accessories:[ Accessory.Sieve_valve ]
  in
  let available = [ inherited ] in
  let problem =
    problem_of ~available ~max_devices:2 a ~rule:Cohls.Binding.Component_oriented
  in
  let next = ref 1 in
  let fresh_id () = let i = !next in incr next; i in
  let engine =
    Cohls.Layer_solver.Ilp
      {
        options =
          {
            Lp.Branch_bound.default_options with
            Lp.Branch_bound.time_limit = None;
            node_limit = Some 200;
          };
        extra_free_slots = 1;
      }
  in
  let { Cohls.List_scheduler.entries; created } =
    Cohls.Layer_solver.solve engine problem ~fresh_id
  in
  let ids = List.map (fun (d : Device.t) -> d.Device.id) (available @ created) in
  List.iter
    (fun (e : Cohls.Schedule.entry) ->
      check bool
        (Printf.sprintf "op %d on an available or created device" e.Cohls.Schedule.op)
        true
        (List.mem e.Cohls.Schedule.device ids))
    entries;
  check bool "available + created <= max_devices" true
    (List.length available + List.length created <= 2);
  check (Alcotest.list int_t) "each layer op exactly once"
    (List.sort compare problem.Cohls.Layer_problem.layer.Cohls.Layering.ops)
    (List.sort compare (List.map (fun (e : Cohls.Schedule.entry) -> e.Cohls.Schedule.op) entries))

let test_ilp_never_worse_than_greedy_random () =
  (* Cross-engine check on small random assays: branch-and-bound warm
     started with the greedy schedule can only match or improve the
     weighted objective, and its schedules must validate. *)
  let tried = ref 0 in
  let seed = ref 0 in
  while !tried < 8 do
    incr seed;
    let params =
      {
        Assays.Random_assay.default_params with
        Assays.Random_assay.op_count = 5;
        indeterminate_fraction = 0.2;
        edge_probability = 0.25;
      }
    in
    let assay = Assays.Random_assay.generate ~seed:!seed params in
    let mk engine =
      Syn.run
        ~config:
          { Syn.default_config with Syn.engine; max_devices = 8; max_iterations = 1 }
        assay
    in
    match mk Cohls.Layer_solver.Heuristic with
    | exception Cohls.List_scheduler.No_device _ -> ()
    | heur ->
      incr tried;
      let ilp =
        mk
          (Cohls.Layer_solver.Ilp
             {
               options =
                 {
                   Lp.Branch_bound.default_options with
                   Lp.Branch_bound.time_limit = Some 3.0;
                 };
               extra_free_slots = 1;
             })
      in
      (match Cohls.Schedule.validate ilp.Syn.final with
       | Ok () -> ()
       | Error e -> Alcotest.failf "seed %d: ilp schedule invalid: %s" !seed e);
      check bool
        (Printf.sprintf "seed %d: ilp weighted <= greedy" !seed)
        true
        (ilp.Syn.final_breakdown.Cohls.Schedule.weighted
         <= heur.Syn.final_breakdown.Cohls.Schedule.weighted)
  done

(* A whole ILP run never ends worse than the heuristic run of the same
   config: random assays of 5-12 ops, several re-synthesis passes, and a
   node budget with no time limit, so each case is deterministic. *)
let prop_ilp_run_never_worse_than_heuristic =
  QCheck.Test.make ~name:"ILP run never ends worse than the heuristic run"
    ~count:50
    QCheck.(
      make
        ~print:(fun (ops, seed) -> Printf.sprintf "%d ops, seed %d" ops seed)
        Gen.(pair (int_range 5 12) (int_range 1 10_000)))
    (fun (op_count, seed) ->
      let assay =
        Assays.Random_assay.generate ~seed
          { Assays.Random_assay.default_params with Assays.Random_assay.op_count }
      in
      let run engine =
        Syn.run ~config:{ Syn.default_config with Syn.engine; max_iterations = 3 } assay
      in
      match run Cohls.Layer_solver.Heuristic with
      | exception Cohls.List_scheduler.No_device _ -> QCheck.assume_fail ()
      | heur ->
        let ilp =
          run
            (Cohls.Layer_solver.Ilp
               {
                 options =
                   {
                     Lp.Branch_bound.default_options with
                     Lp.Branch_bound.time_limit = None;
                     node_limit = Some 40;
                   };
                 extra_free_slots = 1;
               })
        in
        ilp.Syn.final_breakdown.Cohls.Schedule.weighted
        <= heur.Syn.final_breakdown.Cohls.Schedule.weighted)

let () =
  Alcotest.run "ilp-model"
    [
      ( "build",
        [
          Alcotest.test_case "statistics" `Quick test_build_statistics;
          Alcotest.test_case "incompatible slot rejected" `Quick
            test_build_requires_compatible_slot;
        ] );
      ( "solve",
        [
          Alcotest.test_case "solve + extract (component rule)" `Slow
            test_solve_and_extract_component;
          Alcotest.test_case "exact rule device count" `Slow
            test_exact_rule_needs_more_devices;
          Alcotest.test_case "warm start is feasible" `Quick test_warm_start_feasible;
          Alcotest.test_case "indeterminate constraints" `Slow
            test_indeterminate_constraints;
          Alcotest.test_case "pruned optimum matches unpruned" `Slow
            test_pruned_matches_unpruned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "end-to-end ILP synthesis" `Slow test_ilp_engine_end_to_end;
          Alcotest.test_case "layer ILP keeps the cap with inherited devices" `Quick
            test_ilp_layer_respects_cap_with_inherited;
          Alcotest.test_case "ILP never worse than greedy (random)" `Slow
            test_ilp_never_worse_than_greedy_random;
          QCheck_alcotest.to_alcotest prop_ilp_run_never_worse_than_heuristic;
        ] );
    ]
