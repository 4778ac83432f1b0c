open Microfluidics

type config = {
  rule : Binding.rule;
  threshold : int;
  max_devices : int;
  engine : Layer_solver.engine;
  weights : Schedule.weights;
  max_iterations : int;
  refine_by_layout : bool;
}

let cost = Cost.default
let initial_transport = 10
let improvement_threshold = 0.02

let default_config =
  {
    rule = Binding.Component_oriented;
    threshold = 10;
    max_devices = 25;
    engine = Layer_solver.Heuristic;
    weights = Schedule.default_weights;
    max_iterations = 5;
    refine_by_layout = false;
  }

type iteration = {
  iteration_index : int;
  schedule : Schedule.t;
  breakdown : Schedule.breakdown;
}

type result = {
  config : config;
  layering : Layering.t;
  iterations : iteration list;
  final : Schedule.t;
  final_breakdown : Schedule.breakdown;
  runtime_seconds : float;
}

(* The device of an operation in a pass's binding array, [-1] while its
   layer has not committed. *)
let bound binding op = if binding.(op) < 0 then None else Some binding.(op)

(* One full pass over all layers. [pool] are the devices every layer may
   bind to from the start (the previous pass's chip in re-synthesis, with
   stable identities); [penalty i id] is the weighted first-use surcharge a
   layer pays for devices it must re-justify (its own previous D'_i).

   The chip and the op-indexed binding array are the pass's only record.
   When a layer commits, its devices join the chip on first use and each
   in-edge of its operations notes a transfer. Every parent sits in the
   same or an earlier layer, so each layer sees the devices and routed
   paths of the earlier ones (§3.2, constraint (21)), and the last leaves
   the chip of the whole schedule. *)
let run_pass cfg assay layering transport ~guard ~pool ~penalty ~fresh_id =
  let ops = Assay.operations assay in
  let graph = Assay.dependency_graph assay in
  let layer_of_op = layering.Layering.layer_of_op in
  let n_layers = Array.length layering.Layering.layers in
  let chip = Chip.create () in
  let on_chip id = Option.is_some (Chip.find_device chip id) in
  let binding = Array.make (Array.length ops) (-1) in
  let created_by_layer = Array.make n_layers [] in
  (* every device a layer may commit: the pool and each layer's new ones *)
  let known = Hashtbl.create 32 in
  let know (d : Device.t) = Hashtbl.replace known d.Device.id d in
  List.iter know pool;
  let layers =
    Array.init n_layers (fun i ->
        (* fresh ids never collide with pool ids, so these are exactly the
           devices the |D| budget has been spent on *)
        let available =
          List.concat (Array.to_list (Array.sub created_by_layer 0 i)) @ pool
        in
        let problem =
          {
            Layer_problem.ops;
            graph;
            layer = layering.Layering.layers.(i);
            layer_of_op;
            bound_before = bound binding;
            available;
            rule = cfg.rule;
            max_devices = max cfg.max_devices (List.length available);
            device_penalty = (fun id -> if on_chip id then 0 else penalty i id);
            transport = Transport.time transport;
            cost;
            weights = cfg.weights;
            routed = Chip.has_path chip;
          }
        in
        if not guard then Telemetry.count "layer.solves";
        let { List_scheduler.entries; created } =
          Layer_solver.solve cfg.engine problem ~fresh_id
        in
        created_by_layer.(i) <- created;
        List.iter know created;
        List.iter
          (fun { Schedule.op; device; _ } ->
            binding.(op) <- device;
            if not (on_chip device) then Chip.add_device chip (Hashtbl.find known device))
          entries;
        List.iter
          (fun { Schedule.op; device; _ } ->
            List.iter
              (fun p -> Chip.note_transport chip ~src:binding.(p) ~dst:device)
              (Flowgraph.Digraph.pred graph op))
          entries;
        let fixed_makespan = Schedule.fixed_makespan_of entries in
        { Schedule.layer_index = i; entries; fixed_makespan })
  in
  ( { Schedule.assay; rule = cfg.rule; layering; chip; layers },
    created_by_layer,
    binding )

(* Relative execution-time gain of [next] over [prev]. *)
let relative_improvement (prev : Schedule.breakdown) (next : Schedule.breakdown) =
  float_of_int (prev.Schedule.fixed_minutes - next.Schedule.fixed_minutes)
  /. float_of_int (max 1 prev.Schedule.fixed_minutes)

(* The accepted passes of one run under [config]'s engine, chronological:
   the first pass, then re-synthesis passes while each improves. The
   passes of the heuristic guard ([guard], see {!run_with_pool}) count as
   [synthesis.heuristic_guard.passes] only: neither they nor their layer
   solves join the run's own counters. *)
let passes config layering ~guard ~first_fresh_id ~pool assay =
  (* fresh ids must not collide with inherited pool devices (nor with ids
     the caller has retired, e.g. recovery's dead devices) *)
  let next_id =
    ref
      (List.fold_left
         (fun acc (d : Device.t) -> max acc (d.Device.id + 1))
         first_fresh_id pool)
  in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let count_pass () =
    Telemetry.count
      (if guard then "synthesis.heuristic_guard.passes" else "synthesis.passes")
  in
  let op_count = Assay.operation_count assay in
  let graph = Assay.dependency_graph assay in
  let children op = Flowgraph.Digraph.succ graph op in
  (* first pass: forward inheritance only, constant transportation times *)
  let transport0 = Transport.constant ~op_count initial_transport in
  let schedule0, created0, binding0 =
    Telemetry.span "synthesis.pass" ~attrs:[ ("pass", "0") ] (fun () ->
        run_pass config assay layering transport0 ~guard ~pool
          ~penalty:(fun _ _ -> 0)
          ~fresh_id)
  in
  count_pass ();
  let breakdown0 = Schedule.evaluate ~weights:config.weights cost schedule0 in
  let iterations = ref [ { iteration_index = 0; schedule = schedule0; breakdown = breakdown0 } ] in
  let continue = ref (config.max_iterations > 1) in
  let prev = ref (schedule0, created0, binding0) in
  while !continue do
    let prev_schedule, prev_created, prev_binding = !prev in
    let prev_breakdown =
      match !iterations with
      | { breakdown; _ } :: _ -> breakdown
      | [] -> assert false
    in
    (* refine transportation from the previous pass *)
    let binding = bound prev_binding in
    let usage = Chip.path_usage prev_schedule.Schedule.chip in
    let transport =
      if config.refine_by_layout then begin
        let device_ids =
          List.map (fun (d : Device.t) -> d.Device.id)
            (Chip.devices prev_schedule.Schedule.chip)
        in
        let layout = Layout.place ~device_ids ~path_usage:usage in
        Transport.of_layout ~op_count ~binding ~children ~layout
      end
      else Transport.refine ~op_count ~binding ~children ~path_usage:usage
    in
    (* §3.2 re-synthesis inheritance: the whole previous chip D is visible
       to every layer; a layer pays the integration cost again on first use
       of its own previous devices D'_i, so it re-justifies them against the
       devices other layers account for (Fig. 6) *)
    let prev_devices = Chip.devices prev_schedule.Schedule.chip in
    (* device id -> (the layer that created it, its surcharge); fresh ids
       are never reused, so each device has one creating layer *)
    let surcharges = Hashtbl.create 32 in
    Array.iteri
      (fun i ->
        List.iter (fun (d : Device.t) ->
            Hashtbl.replace surcharges d.Device.id
              (i, Schedule.device_cost config.weights cost d)))
      prev_created;
    let penalty i id =
      match Hashtbl.find_opt surcharges id with
      | Some (j, surcharge) when j = i -> surcharge
      | Some _ | None -> 0
    in
    let k = List.length !iterations in
    let schedule, created, binding =
      Telemetry.span "synthesis.pass" ~attrs:[ ("pass", string_of_int k) ]
        (fun () ->
          run_pass config assay layering transport ~guard ~pool:prev_devices ~penalty
            ~fresh_id)
    in
    let breakdown = Schedule.evaluate ~weights:config.weights cost schedule in
    count_pass ();
    (* accept a pass only when the full weighted objective improves (a pure
       time gain bought with extra devices or channels is no improvement);
       stop when the execution-time gain becomes marginal *)
    if breakdown.Schedule.weighted < prev_breakdown.Schedule.weighted then begin
      if not guard then Telemetry.count "synthesis.passes_accepted";
      iterations := { iteration_index = k; schedule; breakdown } :: !iterations;
      prev := (schedule, created, binding);
      let improvement = relative_improvement prev_breakdown breakdown in
      Telemetry.observe "synthesis.pass_improvement" improvement;
      if improvement <= improvement_threshold || k + 1 >= config.max_iterations
      then continue := false
    end
    else begin
      if not guard then Telemetry.count "synthesis.passes_rejected";
      continue := false
    end
  done;
  List.rev !iterations

let final_of iterations = List.nth iterations (List.length iterations - 1)

let run_with_pool ?(config = default_config) ?(first_fresh_id = 0) ~pool assay =
  Telemetry.span "synthesis.run" ~attrs:[ ("assay", Assay.name assay) ]
  @@ fun () ->
  let started = Telemetry.Clock.now_s () in
  (* one device id, one scheduler state: a repeated id would give the
     same device two *)
  let pool_ids = List.map (fun (d : Device.t) -> d.Device.id) pool in
  if List.length (List.sort_uniq compare pool_ids) <> List.length pool_ids then
    invalid_arg "Synthesis.run_with_pool: the pool repeats a device id";
  let layering = Layering.compute ~threshold:config.threshold assay in
  let iterations = passes config layering ~guard:false ~first_fresh_id ~pool assay in
  (* An ILP run never ends worse than the heuristic run of the same
     config: the layer ILPs and the pass acceptance each compare only
     locally, so the whole run is checked against the heuristic's, which
     replaces it only when strictly better. *)
  let iterations =
    match config.engine with
    | Layer_solver.Heuristic -> iterations
    | Layer_solver.Ilp _ ->
      let heuristic =
        Telemetry.span "synthesis.heuristic_guard" (fun () ->
            passes
              { config with engine = Layer_solver.Heuristic }
              layering ~guard:true ~first_fresh_id ~pool assay)
      in
      let weighted its = (final_of its).breakdown.Schedule.weighted in
      if weighted heuristic < weighted iterations then begin
        Telemetry.count "synthesis.heuristic_kept";
        heuristic
      end
      else iterations
  in
  let final_iteration = final_of iterations in
  {
    config;
    layering;
    iterations;
    final = final_iteration.schedule;
    final_breakdown = final_iteration.breakdown;
    runtime_seconds = Telemetry.Clock.now_s () -. started;
  }

let run ?config assay = run_with_pool ?config ~pool:[] assay

let improvement_history result =
  let rec pairs k = function
    | a :: (b :: _ as rest) ->
      (k, relative_improvement a.breakdown b.breakdown) :: pairs (k + 1) rest
    | [ _ ] | [] -> []
  in
  pairs 1 result.iterations
