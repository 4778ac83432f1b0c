type engine =
  | Heuristic
  | Ilp of { options : Lp.Branch_bound.options; extra_free_slots : int }

let solve engine (problem : Layer_problem.t) ~fresh_id =
  Telemetry.span "layer.solve"
    ~attrs:
      [
        ("layer", string_of_int problem.layer.Layering.index);
        ("engine", match engine with Heuristic -> "heuristic" | Ilp _ -> "ilp");
        ("ops", string_of_int (List.length problem.layer.Layering.ops));
      ]
  @@ fun () ->
  let heur =
    Telemetry.span "layer.heuristic" (fun () ->
        List_scheduler.schedule_layer problem ~fresh_id)
  in
  match engine with
  | Heuristic -> heur
  | Ilp { options; extra_free_slots } ->
    Telemetry.span "layer.ilp" @@ fun () ->
    let built, lp =
      Telemetry.span "ilp.model.build" (fun () ->
          let slots = Ilp_model.slots problem heur ~extra_free_slots ~fresh_id in
          let built = Ilp_model.build problem ~slots in
          (built, Ilp_model.model built))
    in
    let exact values v = Numeric.Rat.of_float_approx values.(v) in
    let dir, obj_expr = Lp.Model.objective lp in
    let warm, warm_obj =
      Telemetry.span "ilp.warm_start" (fun () ->
          let warm = Ilp_model.warm_start built heur in
          (warm, Lp.Linexpr.eval (exact warm) obj_expr))
    in
    (* Objective cutoff: only solutions at least as good as the heuristic
       matter, and the (all-integer) objective lets presolve propagate the
       cutoff into tight makespan/start bounds before the search starts. *)
    Lp.Model.add_constr lp ~name:"warm_cutoff" obj_expr Lp.Model.Le
      (Lp.Linexpr.constant warm_obj);
    (* Branch-and-bound abandons a node whose relaxation fails, so no
       kernel failure escapes the search: anything that does is a bug. *)
    let values =
      (Lp.Branch_bound.solve ~options ~warm_start:warm lp).Lp.Branch_bound.values
    in
    (* Accept the ILP schedule only if, in exact arithmetic, it strictly
       beats the heuristic's objective and satisfies [lp]: the model as
       built plus its cutoff row, which every such schedule satisfies.
       Branch-and-bound never writes [lp], so the check cannot see a model
       a presolve bug has bent to fit its own answer. *)
    let better_than_heuristic ilp =
      let c = Numeric.Rat.compare (Lp.Linexpr.eval (exact ilp) obj_expr) warm_obj in
      match dir with `Minimize -> c < 0 | `Maximize -> c > 0
    in
    let certified values =
      let ok =
        Telemetry.span "ilp.certify" (fun () ->
            Lp.Model.check_feasible_exact lp (exact values) = [])
      in
      if not ok then Telemetry.count "layer.ilp_uncertified";
      ok
    in
    match values with
    | Some values when better_than_heuristic values && certified values ->
      Telemetry.count "layer.ilp_improved";
      let entries, created =
        Telemetry.span "ilp.extract" (fun () -> Ilp_model.extract built ~values)
      in
      { List_scheduler.entries; created }
    | Some _ | None ->
      Telemetry.count "layer.ilp_rejected";
      heur
