open Microfluidics

type engine =
  | Heuristic
  | Ilp of { options : Lp.Branch_bound.options; extra_free_slots : int }

let default_ilp =
  Ilp
    {
      options =
        {
          Lp.Branch_bound.default_options with
          Lp.Branch_bound.time_limit = Some 10.0;
        };
      extra_free_slots = 1;
    }

type input = {
  ops : Operation.t array;
  graph : Flowgraph.Digraph.t;
  layer : Layering.layer;
  layer_of_op : int array;
  bound_before : int -> int option;
  available : Device.t list;
  rule : Binding.rule;
  max_devices : int;
  transport : int -> int;
  cost : Cost.t;
  weights : Schedule.weights;
  existing_paths : (int * int) list;
  device_penalty : int -> int;
}

type output = {
  entries : Schedule.entry list;
  fixed_makespan : int;
  created : Device.t list;
  used_ilp : bool;
}

let run_heuristic input ~fresh_id =
  let cfg =
    {
      List_scheduler.rule = input.rule;
      max_devices = input.max_devices;
      cost = input.cost;
      weights = input.weights;
      device_penalty = input.device_penalty;
    }
  in
  List_scheduler.schedule_layer cfg ~ops:input.ops ~graph:input.graph
    ~layer:input.layer ~layer_of_op:input.layer_of_op
    ~bound_before:input.bound_before ~available:input.available
    ~transport:input.transport ~existing_paths:input.existing_paths ~fresh_id

let solve engine input ~fresh_id =
  Telemetry.span "layer.solve"
    ~attrs:
      [
        ("layer", string_of_int input.layer.Layering.index);
        ("engine", match engine with Heuristic -> "heuristic" | Ilp _ -> "ilp");
        ("ops", string_of_int (List.length input.layer.Layering.ops));
      ]
  @@ fun () ->
  Telemetry.count "layer.solves";
  let heur = Telemetry.span "layer.heuristic" (fun () -> run_heuristic input ~fresh_id) in
  match engine with
  | Heuristic ->
    {
      entries = heur.List_scheduler.entries;
      fixed_makespan = heur.List_scheduler.fixed_makespan;
      created = heur.List_scheduler.created;
      used_ilp = false;
    }
  | Ilp { options; extra_free_slots } ->
    Telemetry.span "layer.ilp" @@ fun () ->
    let n_created = List.length heur.List_scheduler.created in
    let n_avail = List.length input.available in
    let free_count =
      min (n_created + extra_free_slots) (max 0 (input.max_devices - n_avail))
    in
    let slots =
      Array.of_list
        (List.map (fun d -> Ilp_model.Fixed d) input.available
        @ List.init free_count (fun _ -> Ilp_model.Free { id = fresh_id () }))
    in
    let spec =
      {
        Ilp_model.ops = input.ops;
        graph = input.graph;
        layer = input.layer;
        layer_of_op = input.layer_of_op;
        bound_before = input.bound_before;
        slots;
        rule = input.rule;
        transport = input.transport;
        cost = input.cost;
        weights = input.weights;
        existing_paths = input.existing_paths;
      }
    in
    let built = Ilp_model.build spec in
    let lp = Ilp_model.model built in
    (* Presolve tightens [lp] in place, so the certificate below checks
       against a copy of the model as built, not one a presolve bug could
       have bent to fit its own answer. *)
    let as_built = Lp.Model.copy lp in
    let warm = Ilp_model.warm_start built heur.List_scheduler.entries in
    let warm_obj =
      Option.map (fun values -> Lp.Model.eval_objective lp (fun v -> values.(v))) warm
    in
    (* Objective cutoff: only solutions at least as good as the heuristic
       matter, and the (all-integer) objective lets presolve propagate the
       cutoff into tight makespan/start bounds before the search starts. *)
    (match warm_obj with
     | Some wobj ->
       let _, obj_expr = Lp.Model.objective lp in
       Lp.Model.add_constr lp ~name:"warm_cutoff" obj_expr Lp.Model.Le
         (Lp.Linexpr.constant
            (Numeric.Rat.of_int (int_of_float (Float.round wobj))))
     | None -> ());
    (* Branch-and-bound abandons a node whose relaxation fails; a kernel
       failure that still escapes the search ends only this layer's ILP,
       never the synthesis run. *)
    let values =
      match Lp.Branch_bound.solve ~options ?warm_start:warm lp with
      | result -> result.Lp.Branch_bound.values
      | exception (Lp.Tableau.Singular | Lp.Tableau.Iteration_limit | Failure _) ->
        Telemetry.count "layer.ilp_failed";
        None
    in
    (* Accept the ILP schedule only if, in exact arithmetic, it satisfies
       the model as built and strictly beats the heuristic's objective. *)
    let exact values v = Numeric.Rat.of_float_approx values.(v) in
    let dir, obj_expr = Lp.Model.objective as_built in
    let better_than_heuristic ilp =
      match warm with
      | None -> true
      | Some heur ->
        let c =
          Numeric.Rat.compare
            (Lp.Linexpr.eval (exact ilp) obj_expr)
            (Lp.Linexpr.eval (exact heur) obj_expr)
        in
        (match dir with `Minimize -> c < 0 | `Maximize -> c > 0)
    in
    let certified values =
      let ok = Lp.Model.check_feasible_exact as_built (exact values) = [] in
      if not ok then Telemetry.count "layer.ilp_uncertified";
      ok
    in
    match values with
    | Some values when better_than_heuristic values && certified values ->
      Telemetry.count "layer.ilp_improved";
      let entries, created = Ilp_model.extract built ~values in
      let fixed_makespan =
        List.fold_left
          (fun acc e ->
            max acc (e.Schedule.start + e.Schedule.min_duration + e.Schedule.transport))
          0 entries
      in
      { entries; fixed_makespan; created; used_ilp = true }
    | Some _ | None ->
      Telemetry.count "layer.ilp_rejected";
      {
        entries = heur.List_scheduler.entries;
        fixed_makespan = heur.List_scheduler.fixed_makespan;
        created = heur.List_scheduler.created;
        used_ilp = false;
      }
