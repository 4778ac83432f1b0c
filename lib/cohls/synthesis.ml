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

(* One full pass over all layers. [pool] are the devices every layer may
   bind to from the start (the previous pass's chip in re-synthesis, with
   stable identities); [penalty i id] is the weighted first-use surcharge a
   layer pays for devices it must re-justify (its own previous D'_i). *)
let run_pass cfg assay layering transport ~pool ~penalty ~fresh_id =
  let ops = Assay.operations assay in
  let graph = Assay.dependency_graph assay in
  let layer_of_op = layering.Layering.layer_of_op in
  let n_layers = Array.length layering.Layering.layers in
  let device_of_op = Hashtbl.create 32 in
  let devices_so_far = ref [] in (* created in this pass, chronological *)
  let created_by_layer = Array.make n_layers [] in
  let layer_schedules = ref [] in
  let existing_paths = ref [] in
  let note_paths entries =
    (* record the device pairs used by transfers seen so far, so later
       layers reuse routed channels for free *)
    let dev op = Hashtbl.find_opt device_of_op op in
    List.iter
      (fun (e : Schedule.entry) ->
        List.iter
          (fun p ->
            match dev p with
            | Some dp when dp <> e.Schedule.device ->
              let k = (min dp e.Schedule.device, max dp e.Schedule.device) in
              if not (List.mem k !existing_paths) then
                existing_paths := k :: !existing_paths
            | Some _ | None -> ())
          (Assay.parents assay e.Schedule.op))
      entries
  in
  (* |D| is one shared budget for the whole pass: the pool plus every
     device created by any layer counts against it, so the union of
     per-layer device sets can never exceed the cap. *)
  let referenced = Hashtbl.create 32 in
  List.iter (fun (d : Device.t) -> Hashtbl.replace referenced d.Device.id ()) pool;
  (* devices bound by this pass's entries so far; after the last layer,
     exactly the devices the chip keeps *)
  let used_this_pass = Hashtbl.create 32 in
  for i = 0 to n_layers - 1 do
    let layer = layering.Layering.layers.(i) in
    let created_earlier = List.concat (List.rev !devices_so_far) in
    let available =
      (* dedupe by id, this pass's creations first *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun (d : Device.t) ->
          if Hashtbl.mem seen d.Device.id then false
          else begin
            Hashtbl.replace seen d.Device.id ();
            true
          end)
        (created_earlier @ pool)
    in
    let new_budget = max 0 (cfg.max_devices - Hashtbl.length referenced) in
    let device_penalty id =
      if Hashtbl.mem used_this_pass id then 0 else penalty i id
    in
    let problem =
      {
        Layer_problem.ops;
        graph;
        layer;
        layer_of_op;
        bound_before = (fun op -> Hashtbl.find_opt device_of_op op);
        available;
        rule = cfg.rule;
        max_devices = List.length available + new_budget;
        device_penalty;
        transport = Transport.time transport;
        cost;
        weights = cfg.weights;
        existing_paths = !existing_paths;
      }
    in
    let { List_scheduler.entries; created } =
      Layer_solver.solve cfg.engine problem ~fresh_id
    in
    created_by_layer.(i) <- created;
    devices_so_far := created :: !devices_so_far;
    List.iter (fun (d : Device.t) -> Hashtbl.replace referenced d.Device.id ()) created;
    List.iter
      (fun (e : Schedule.entry) ->
        Hashtbl.replace device_of_op e.Schedule.op e.Schedule.device;
        Hashtbl.replace used_this_pass e.Schedule.device ())
      entries;
    note_paths entries;
    layer_schedules :=
      {
        Schedule.layer_index = i;
        entries;
        fixed_makespan = Schedule.fixed_makespan_of entries;
      }
      :: !layer_schedules
  done;
  let layers = Array.of_list (List.rev !layer_schedules) in
  (* chip = devices actually used + paths from all inter-device transfers *)
  let chip = Chip.create () in
  let all_created = List.concat (List.rev !devices_so_far) in
  let add_if_used (d : Device.t) =
    if Hashtbl.mem used_this_pass d.Device.id && Chip.find_device chip d.Device.id = None
    then Chip.add_device chip d
  in
  List.iter add_if_used all_created;
  List.iter add_if_used pool;
  Flowgraph.Digraph.iter_edges
    (fun u v ->
      match (Hashtbl.find_opt device_of_op u, Hashtbl.find_opt device_of_op v) with
      | Some du, Some dv when du <> dv -> Chip.note_transport chip ~src:du ~dst:dv
      | Some _, Some _ | None, _ | _, None -> ())
    graph;
  ({ Schedule.assay; rule = cfg.rule; layering; chip; layers }, created_by_layer)

(* Relative execution-time gain of [next] over [prev]. *)
let relative_improvement (prev : Schedule.breakdown) (next : Schedule.breakdown) =
  float_of_int (prev.Schedule.fixed_minutes - next.Schedule.fixed_minutes)
  /. float_of_int (max 1 prev.Schedule.fixed_minutes)

let run_with_pool ?(config = default_config) ?(first_fresh_id = 0) ~pool assay =
  Telemetry.span "synthesis.run" ~attrs:[ ("assay", Assay.name assay) ]
  @@ fun () ->
  let started = Telemetry.Clock.now_s () in
  let layering = Layering.compute ~threshold:config.threshold assay in
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
  let op_count = Assay.operation_count assay in
  let graph = Assay.dependency_graph assay in
  let children op = Flowgraph.Digraph.succ graph op in
  (* first pass: forward inheritance only, constant transportation times *)
  let transport0 = Transport.constant ~op_count initial_transport in
  let schedule0, created0 =
    Telemetry.span "synthesis.pass" ~attrs:[ ("pass", "0") ] (fun () ->
        run_pass config assay layering transport0 ~pool
          ~penalty:(fun _ _ -> 0)
          ~fresh_id)
  in
  Telemetry.count "synthesis.passes";
  let breakdown0 = Schedule.evaluate ~weights:config.weights cost schedule0 in
  let iterations = ref [ { iteration_index = 0; schedule = schedule0; breakdown = breakdown0 } ] in
  let continue = ref (config.max_iterations > 1) in
  let prev = ref (schedule0, created0) in
  while !continue do
    let prev_schedule, prev_created = !prev in
    let prev_breakdown =
      match !iterations with
      | { breakdown; _ } :: _ -> breakdown
      | [] -> assert false
    in
    (* refine transportation from the previous pass *)
    let binding op = Schedule.binding prev_schedule op in
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
    let own_of_layer =
      Array.map
        (fun created -> List.map (fun (d : Device.t) -> d.Device.id) created)
        prev_created
    in
    let penalty i id =
      if i < Array.length own_of_layer && List.mem id own_of_layer.(i) then begin
        match Chip.find_device prev_schedule.Schedule.chip id with
        | Some d ->
          (config.weights.Schedule.w_area * Cost.device_area cost d)
          + (config.weights.Schedule.w_processing * Cost.device_processing cost d)
        | None -> 0
      end
      else 0
    in
    let k = List.length !iterations in
    let schedule, created =
      Telemetry.span "synthesis.pass" ~attrs:[ ("pass", string_of_int k) ]
        (fun () ->
          run_pass config assay layering transport ~pool:prev_devices ~penalty
            ~fresh_id)
    in
    let breakdown = Schedule.evaluate ~weights:config.weights cost schedule in
    Telemetry.count "synthesis.passes";
    (* accept a pass only when the full weighted objective improves (a pure
       time gain bought with extra devices or channels is no improvement);
       stop when the execution-time gain becomes marginal *)
    if breakdown.Schedule.weighted < prev_breakdown.Schedule.weighted then begin
      Telemetry.count "synthesis.passes_accepted";
      iterations := { iteration_index = k; schedule; breakdown } :: !iterations;
      prev := (schedule, created);
      let improvement = relative_improvement prev_breakdown breakdown in
      Telemetry.observe "synthesis.pass_improvement" improvement;
      if improvement <= improvement_threshold || k + 1 >= config.max_iterations
      then continue := false
    end
    else begin
      Telemetry.count "synthesis.passes_rejected";
      continue := false
    end
  done;
  let iterations = List.rev !iterations in
  let final_iteration = List.nth iterations (List.length iterations - 1) in
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
