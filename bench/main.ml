(* Benchmark harness regenerating every table and figure of the paper's
   evaluation section, plus the ablations called out in DESIGN.md and
   Bechamel micro-benchmarks of the computational kernels.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table2     -- one experiment
     (table2 | table3 | fig4 | fig5 | fig6 | ablation | faults | micro) *)

open Microfluidics
module Syn = Cohls.Synthesis

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.=== %s ===@." title

(* ---------------------------------------------------------------- cases *)

type case = {
  label : string;
  assay : Assay.t Lazy.t;
  ops : int;
  indets : int;
  paper_conv : string; (* the paper's reported numbers, for side-by-side *)
  paper_ours : string;
}

let cases =
  [
    {
      label = "1 [10] kinase";
      assay = lazy (Assays.Kinase.testcase ());
      ops = 16;
      indets = 0;
      paper_conv = "225m, 3D, 3P";
      paper_ours = "220m, 2D, 2P";
    };
    {
      label = "2 [7] gene-expr";
      assay = lazy (Assays.Gene_expression.testcase ());
      ops = 70;
      indets = 10;
      paper_conv = "277m+I1, 24D, 82P";
      paper_ours = "244m+I1, 21D, 33P";
    };
    {
      label = "3 [17] rt-qpcr";
      assay = lazy (Assays.Rt_qpcr.testcase ());
      ops = 120;
      indets = 20;
      paper_conv = "603m+I1+I2, 24D, 95P";
      paper_ours = "492m+I1+I2, 24D, 85P";
    };
  ]

let results = Hashtbl.create 8
let case_seconds = Hashtbl.create 8

(* The CI perf gate diffs the JSON artifact against a checked-in baseline,
   so the ILP leg runs under a node budget with no time limit: the wave
   search's explored tree — and with it every schedule-quality field in the
   JSON — then depends only on the budget, never on the machine's clock. *)
let ilp_node_budget = 1500 (* per layer solve; ~10 s sequential *)

let ilp_options =
  {
    Lp.Branch_bound.default_options with
    Lp.Branch_bound.time_limit = None;
    node_limit = Some ilp_node_budget;
  }

(* ILP layer-refinement leg of table 2 (case 1 at the default per-layer
   budget), kept for the JSON artifact the CI perf gate diffs. *)
let ilp_leg : Syn.result option ref = ref None

let run_case case =
  match Hashtbl.find_opt results case.label with
  | Some r -> r
  | None ->
    let assay = Lazy.force case.assay in
    let (ours, conv), dt =
      Telemetry.Clock.timed (fun () ->
          let ours = Syn.run assay in
          let conv = Cohls.Baseline.run assay in
          (ours, conv))
    in
    Hashtbl.replace case_seconds case.label dt;
    (match Cohls.Schedule.validate ours.Syn.final with
     | Ok () -> ()
     | Error e -> Format.fprintf fmt "WARNING %s ours invalid: %s@." case.label e);
    (match Cohls.Schedule.validate conv.Syn.final with
     | Ok () -> ()
     | Error e -> Format.fprintf fmt "WARNING %s conv invalid: %s@." case.label e);
    Hashtbl.replace results case.label (ours, conv);
    (ours, conv)

(* ---------------------------------------------------------------- table 2 *)

let table2 () =
  section "Table 2: Synthesis Results for Bioassays";
  let rows =
    List.map
      (fun case ->
        let ours, conv = run_case case in
        {
          Cohls.Report.testcase = case.label;
          op_count = case.ops;
          indeterminate_count = case.indets;
          conventional = conv;
          ours;
        })
      cases
  in
  Cohls.Report.table2 fmt rows;
  Format.fprintf fmt "@.Paper reference values:@.";
  List.iter
    (fun case ->
      Format.fprintf fmt "  %-16s paper conv: %-22s paper ours: %s@." case.label
        case.paper_conv case.paper_ours)
    cases;
  section "Table 2b: ILP layer refinement, case 1 at default budget";
  let ilp =
    Syn.run
      ~config:
        {
          Syn.default_config with
          Syn.engine =
            Cohls.Layer_solver.Ilp
              { options = ilp_options; extra_free_slots = 1 };
        }
      (Lazy.force (List.hd cases).assay)
  in
  ilp_leg := Some ilp;
  let bi = ilp.Syn.final_breakdown in
  Format.fprintf fmt
    "  kinase (ILP): time %dm  devices %d  paths %d  weighted %d  (%.1fs)@."
    bi.Cohls.Schedule.fixed_minutes bi.Cohls.Schedule.devices
    bi.Cohls.Schedule.paths bi.Cohls.Schedule.weighted ilp.Syn.runtime_seconds;
  Format.fprintf fmt
    "@.Shape check (expected: ours <= conv on every column):@.";
  List.iter
    (fun case ->
      let ours, conv = run_case case in
      let bo = ours.Syn.final_breakdown and bc = conv.Syn.final_breakdown in
      Format.fprintf fmt
        "  %-16s time %4dm vs %4dm (%.1f%%)  devices %2d vs %2d  paths %2d vs %2d@."
        case.label bo.Cohls.Schedule.fixed_minutes bc.Cohls.Schedule.fixed_minutes
        (100.0
         *. float_of_int bo.Cohls.Schedule.fixed_minutes
         /. float_of_int bc.Cohls.Schedule.fixed_minutes)
        bo.Cohls.Schedule.devices bc.Cohls.Schedule.devices bo.Cohls.Schedule.paths
        bc.Cohls.Schedule.paths)
    cases

(* ---------------------------------------------------------------- table 3 *)

let table3 () =
  section "Table 3: Improvement from Progressive Re-Synthesis";
  let entries =
    List.filter_map
      (fun case ->
        if case.indets > 0 then begin
          let ours, _ = run_case case in
          Some (case.label, ours)
        end
        else None)
      cases
  in
  Cohls.Report.table3 fmt entries;
  Format.fprintf fmt
    "@.Paper reference: case 2: 295m -> 247m (16.27%%) -> 244m (1.21%%), #D 21 \
     constant;@.                 case 3: 641m -> 530m (17.32%%) -> 492m (7.17%%), \
     #D 24 constant.@."

(* ---------------------------------------------------------------- fig 4 *)

let fig4 () =
  section "Fig. 4: dependency-based allocation (max independent set)";
  (* the figure's situation: a chain of indeterminate ops; only those
     without indeterminate ancestors in the working set join the layer *)
  let a = Assay.create ~name:"fig4" in
  let ind name = Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 5 }) name in
  let det name = Assay.add_operation a ~duration:(Operation.Fixed 5) name in
  let oa = ind "o_a" in
  let m1 = det "m1" in
  let ob = ind "o_b" in
  let m2 = det "m2" in
  let oc = ind "o_c" in
  let free = det "free" in
  Assay.add_dependency a ~parent:oa ~child:m1;
  Assay.add_dependency a ~parent:m1 ~child:ob;
  Assay.add_dependency a ~parent:ob ~child:m2;
  Assay.add_dependency a ~parent:m2 ~child:oc;
  ignore free;
  let l = Cohls.Layering.compute a in
  Format.fprintf fmt "%a@." Cohls.Layering.pp l;
  Array.iter
    (fun (layer : Cohls.Layering.layer) ->
      Format.fprintf fmt "  L%d ops: %s@." layer.Cohls.Layering.index
        (String.concat ", "
           (List.map
              (fun v -> (Assay.operation a v).Operation.name)
              layer.Cohls.Layering.ops)))
    l.Cohls.Layering.layers;
  Format.fprintf fmt
    "expected: three layers peeling one indeterminate op each (o_a, o_b, o_c), \
     the free op in layer 0.@."

(* ---------------------------------------------------------------- fig 5 *)

let fig5 () =
  section "Fig. 5: resource-based eviction (storage-aware min-cut)";
  let a = Assay.create ~name:"fig5" in
  let ind name = Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 5 }) name in
  let det name = Assay.add_operation a ~duration:(Operation.Fixed 5) name in
  let a1 = det "a1" in
  let o1 = ind "o1" in
  Assay.add_dependency a ~parent:a1 ~child:o1;
  let a2 = det "a2" in
  let a3 = det "a3" in
  let o2 = ind "o2" in
  Assay.add_dependency a ~parent:a2 ~child:o2;
  Assay.add_dependency a ~parent:a3 ~child:o2;
  let a4 = det "a4" in
  let a5 = det "a5" in
  let o3 = ind "o3" in
  Assay.add_dependency a ~parent:a4 ~child:a5;
  Assay.add_dependency a ~parent:a5 ~child:o3;
  Assay.add_dependency a ~parent:a4 ~child:o3;
  List.iter
    (fun threshold ->
      let l = Cohls.Layering.compute ~threshold a in
      let name v = (Assay.operation a v).Operation.name in
      Format.fprintf fmt "threshold %d: layer0 indets = {%s}, stored = %d@." threshold
        (String.concat ", " (List.map name l.Cohls.Layering.layers.(0).Cohls.Layering.indeterminate))
        (List.length l.Cohls.Layering.layers.(0).Cohls.Layering.stored_transfers))
    [ 3; 2; 1 ];
  Format.fprintf fmt
    "expected: t=3 keeps all; t=2 evicts o1 (storage 1, moves nothing);@.\
    \          t=1 additionally evicts o3 (cut cost 1 moving 2 ancestors beats \
     o2's storage 2).@."

(* ---------------------------------------------------------------- fig 6 *)

let fig6 () =
  section "Fig. 6: device inheritance risk and progressive re-synthesis";
  (* o2 (chamber-ish, {s}) in layer 0; o1 (ring, {s,p}) in layer 1. Pass 1
     integrates a cheap device for o2 that o1 cannot reuse; re-synthesis
     notices and binds o2 to o1's ring. The layering is forced by an
     indeterminate op between them. *)
  let a = Assay.create ~name:"fig6" in
  let o2 =
    Assay.add_operation a ~accessories:[ Components.Accessory.Sieve_valve ]
      ~duration:(Operation.Fixed 10) "o2-wash"
  in
  let gate =
    Assay.add_operation a
      ~duration:(Operation.Indeterminate { min_minutes = 5 })
      "gate"
  in
  let o1 =
    Assay.add_operation a ~container:Components.Container.Ring
      ~capacity:Components.Capacity.Small
      ~accessories:[ Components.Accessory.Sieve_valve; Components.Accessory.Pump ]
      ~duration:(Operation.Fixed 10) "o1-mix"
  in
  Assay.add_dependency a ~parent:o2 ~child:gate;
  Assay.add_dependency a ~parent:gate ~child:o1;
  let r = Syn.run a in
  List.iteri
    (fun k (it : Syn.iteration) ->
      let s = it.Syn.schedule in
      let dev op = match Cohls.Schedule.binding s op with Some d -> d | None -> -1 in
      Format.fprintf fmt
        "iteration %d: o2 on d%d, o1 on d%d, devices %d, weighted %d@." k (dev o2)
        (dev o1)
        it.Syn.breakdown.Cohls.Schedule.devices
        it.Syn.breakdown.Cohls.Schedule.weighted)
    r.Syn.iterations;
  let final_devices = r.Syn.final_breakdown.Cohls.Schedule.devices in
  Format.fprintf fmt
    "expected: the final pass shares one ring/sieve-valve device between o1 and \
     o2 where the first pass built a separate chamber (devices: %d).@."
    final_devices

(* ---------------------------------------------------------------- ablation *)

let ablation () =
  section "Ablation: layer-solver engine (ILP vs heuristic, small protocol)";
  let assay = Assays.Kinase.base () in
  let mk engine =
    Syn.run
      ~config:{ Syn.default_config with Syn.engine; max_devices = 6; max_iterations = 1 }
      assay
  in
  let heur = mk Cohls.Layer_solver.Heuristic in
  let ilp =
    mk
      (Cohls.Layer_solver.Ilp
         { options = ilp_options; extra_free_slots = 1 })
  in
  let show tag (r : Syn.result) =
    let b = r.Syn.final_breakdown in
    Format.fprintf fmt "  %-10s time %3dm devices %d paths %d weighted %6d (%.2fs)@."
      tag b.Cohls.Schedule.fixed_minutes b.Cohls.Schedule.devices b.Cohls.Schedule.paths
      b.Cohls.Schedule.weighted r.Syn.runtime_seconds
  in
  show "heuristic" heur;
  show "ilp" ilp;

  section "Ablation: binding rule (the paper's central claim, case 2)";
  let assay2 = Assays.Gene_expression.testcase () in
  let with_rule rule =
    Syn.run ~config:{ Syn.default_config with Syn.rule } assay2
  in
  show "component" (with_rule Cohls.Binding.Component_oriented);
  show "exact-sig" (with_rule Cohls.Binding.Exact_signature);

  section "Ablation: transportation refinement on/off (case 3)";
  let assay3 = Assays.Rt_qpcr.testcase () in
  let refined = Syn.run assay3 in
  let unrefined =
    Syn.run ~config:{ Syn.default_config with Syn.max_iterations = 1 } assay3
  in
  show "refined" refined;
  show "constant-t" unrefined;

  section "Ablation: indeterminate threshold sweep (case 3)";
  List.iter
    (fun threshold ->
      let r = Syn.run ~config:{ Syn.default_config with Syn.threshold } assay3 in
      let b = r.Syn.final_breakdown in
      Format.fprintf fmt
        "  threshold %2d: %d layers, time %3dm devices %d paths %d@." threshold
        (Array.length r.Syn.final.Cohls.Schedule.layers)
        b.Cohls.Schedule.fixed_minutes b.Cohls.Schedule.devices b.Cohls.Schedule.paths)
    [ 2; 5; 10; 20 ];

  section "Ablation: transport refinement source (usage rank vs grid layout, case 2)";
  show "usage-rank" (Syn.run assay2);
  show "grid-layout" (Syn.run ~config:{ Syn.default_config with Syn.refine_by_layout = true } assay2);

  section "Ablation: control-layer effort (valves and switching events)";
  (* fewer transportation paths (contribution III) translate into fewer
     path-gate valves and fewer switching events, the metric minimised by
     the paper's reference [4] *)
  List.iter
    (fun case ->
      let ours, conv = run_case case in
      let stats (r : Syn.result) =
        let layer = Control.Control_layer.of_chip r.Syn.final.Cohls.Schedule.chip in
        let timeline = Control.Actuation.synthesise layer r.Syn.final in
        (Control.Control_layer.valve_count layer,
         Control.Actuation.switch_count timeline)
      in
      let vo, so = stats ours and vc, sc = stats conv in
      Format.fprintf fmt "  %-16s ours %3d valves / %4d switches   conv %3d valves / %4d switches@."
        case.label vo so vc sc)
    cases;

  section "Ablation: binding-rule robustness over random protocols";
  let wins = ref 0 and ties = ref 0 and losses = ref 0 in
  let tried = ref 0 in
  let seed = ref 0 in
  while !tried < 10 do
    incr seed;
    let params =
      { Assays.Random_assay.default_params with Assays.Random_assay.op_count = 24 }
    in
    let assay = Assays.Random_assay.generate ~seed:!seed params in
    match (Syn.run assay, Cohls.Baseline.run assay) with
    | exception Cohls.List_scheduler.No_device _ -> ()
    | ours, conv ->
      incr tried;
      let o = ours.Syn.final_breakdown.Cohls.Schedule.fixed_minutes in
      let c = conv.Syn.final_breakdown.Cohls.Schedule.fixed_minutes in
      if o < c then incr wins else if o = c then incr ties else incr losses
  done;
  Format.fprintf fmt
    "  over %d random 24-op assays: ours faster %d, tied %d, slower %d@." !tried
    !wins !ties !losses;

  section "Ablation: physical design quality (floorplan + maze routing)";
  (* fewer transportation paths should also yield a cheaper physical
     design: shorter total channel length and fewer channel crossings *)
  List.iter
    (fun case ->
      let ours, conv = run_case case in
      let q (r : Syn.result) =
        Physical.Physical_design.quality
          (Physical.Physical_design.of_schedule Cost.default r.Syn.final)
      in
      let da, la, ca = q ours and dc, lc, cc = q conv in
      Format.fprintf fmt
        "  %-16s ours die %4d len %4d cross %3d   conv die %4d len %4d cross %3d@."
        case.label da la ca dc lc cc)
    cases;

  section "Ablation: scaling (replicated gene-expression protocol, the paper's scaling method)";
  List.iter
    (fun copies ->
      let assay = Assay.replicate (Assays.Gene_expression.base ()) ~copies in
      let r, dt = Telemetry.Clock.timed (fun () -> Syn.run assay) in
      Format.fprintf fmt "  %4d ops: %7.3fs, %d layers, %d devices, time %s@."
        (Assay.operation_count assay)
        dt
        (Array.length r.Syn.final.Cohls.Schedule.layers)
        r.Syn.final_breakdown.Cohls.Schedule.devices
        (Cohls.Report.exe_time_string r))
    [ 10; 20; 40; 80 ];

  section "Ablation: hybrid vs fully static scheduling (slot fragility)";
  (* the paper's motivation for hybrid scheduling: a one-layer fixed-slot
     schedule breaks downstream slots whenever an indeterminate operation
     overruns; the layered hybrid schedule has zero in-layer exposure by
     constraint (14) *)
  List.iter
    (fun (label, assay) ->
      let static, hybrid = Cohls.Static_baseline.compare_hybrid assay in
      Format.fprintf fmt
        "  %-16s static: %3d/%3d slots exposed (worst chain %3d)   hybrid: %d exposed@."
        label static.Cohls.Static_baseline.exposed_slots
        static.Cohls.Static_baseline.total_slots
        static.Cohls.Static_baseline.worst_chain
        hybrid.Cohls.Static_baseline.exposed_slots)
    [
      ("case2 gene-expr", Assays.Gene_expression.testcase ());
      ("case3 rt-qpcr", Assays.Rt_qpcr.testcase ());
      ("mda [12]", Assays.Mda.testcase ());
    ];

  section "Ablation: hybrid execution (realised I_k under an indeterminacy oracle)";
  let r = Syn.run assay2 in
  List.iter
    (fun extra ->
      match
        Cohls.Runtime.execute r.Syn.final
          (Cohls.Runtime.deterministic_oracle ~extra (Lazy.force (lazy assay2)))
      with
      | Ok trace ->
        Format.fprintf fmt "  capture overrun +%2dm: total %dm (fixed %dm)@." extra
          trace.Cohls.Runtime.total_minutes
          (Cohls.Schedule.total_fixed_minutes r.Syn.final)
      | Error e -> Format.fprintf fmt "  oracle error: %s@." e)
    [ 0; 5; 15; 30 ]

(* ---------------------------------------------------------------- faults *)

(* Fault-rate sweep: makespan overhead and recovery cost of fault-tolerant
   execution vs. the fault-free replay of the same schedule (the protocol
   of EXPERIMENTS.md). Everything is seeded, so re-runs reproduce the same
   numbers exactly. *)
let faults () =
  section "Fault injection: recovery count, latency, and makespan overhead";
  let fcases =
    [
      ("case2 gene-expr", Assays.Gene_expression.testcase ());
      ("mda [12]", Assays.Mda.testcase ());
    ]
  in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun (label, assay) ->
      let r = Syn.run assay in
      let oracle = Cohls.Runtime.seeded_oracle ~seed:1 ~max_extra:20 assay in
      let baseline =
        match Cohls.Runtime.execute r.Syn.final oracle with
        | Ok t -> t.Cohls.Runtime.total_minutes
        | Error e -> failwith ("fault-free replay failed: " ^ e)
      in
      Format.fprintf fmt "  %-16s fault-free realised %dm; %d seeds per rate@."
        label baseline (List.length seeds);
      List.iter
        (fun rate ->
          let completed = ref 0 and failed = ref 0 in
          let injected = ref 0 and recoveries = ref 0 in
          let overhead = ref 0.0 and latency = ref 0.0 in
          List.iter
            (fun seed ->
              let plan = Cohls.Faults.seeded ~seed ~rate in
              match
                Cohls.Recovery.execute ~allow_new_devices:true ~plan ~oracle
                  r.Syn.final
              with
              | Ok o ->
                incr completed;
                injected :=
                  !injected
                  + o.Cohls.Recovery.stats.Cohls.Runtime.faults_injected;
                recoveries := !recoveries + List.length o.Cohls.Recovery.attempts;
                latency :=
                  !latency
                  +. List.fold_left
                       (fun acc (a : Cohls.Recovery.attempt) ->
                         acc +. a.Cohls.Recovery.resynth_seconds)
                       0.0 o.Cohls.Recovery.attempts;
                overhead :=
                  !overhead
                  +. 100.0
                     *. float_of_int
                          (o.Cohls.Recovery.trace.Cohls.Runtime.total_minutes
                          - baseline)
                     /. float_of_int (max 1 baseline)
              | Error _ -> incr failed)
            seeds;
          Format.fprintf fmt
            "    rate %.2f: %d/%d completed (%3d faults, %2d recoveries), mean \
             overhead %+5.1f%%, mean recovery latency %5.1fms, %d failed@."
            rate !completed (List.length seeds) !injected !recoveries
            (if !completed > 0 then !overhead /. float_of_int !completed else 0.0)
            (if !recoveries > 0 then 1000.0 *. !latency /. float_of_int !recoveries
             else 0.0)
            !failed)
        [ 0.0; 0.02; 0.05; 0.1; 0.2 ])
    fcases

(* ---------------------------------------------------------------- micro *)

let wyndor_solve () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  let y = Lp.Model.add_var m "y" in
  let open Lp.Linexpr in
  Lp.Model.add_constr m (var x) Lp.Model.Le (of_int 4);
  Lp.Model.add_constr m (iterm 2 y) Lp.Model.Le (of_int 12);
  Lp.Model.add_constr m (add (iterm 3 x) (iterm 2 y)) Lp.Model.Le (of_int 18);
  Lp.Model.set_objective m `Maximize (add (iterm 3 x) (iterm 5 y));
  ignore (Lp.Simplex.solve_relaxation_float m)

let maxflow_grid () =
  (* an 8x8 grid network with unit-ish capacities *)
  let side = 8 in
  let id r c = (r * side) + c in
  let net = Flowgraph.Maxflow.create (side * side) in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      if c + 1 < side then
        Flowgraph.Maxflow.add_edge net ~src:(id r c) ~dst:(id r (c + 1)) ~cap:((r mod 3) + 1);
      if r + 1 < side then
        Flowgraph.Maxflow.add_edge net ~src:(id r c) ~dst:(id (r + 1) c) ~cap:((c mod 3) + 1)
    done
  done;
  ignore (Flowgraph.Maxflow.max_flow net ~source:0 ~sink:(side * side - 1))

(* The first case-1 (kinase) layer's ILP as the layer solver builds it on
   a first synthesis pass: no inherited devices, and one free slot more
   than heuristic synthesis uses devices. *)
let case1_layer_model () =
  let assay = Assays.Kinase.testcase () in
  let layering = Cohls.Layering.compute assay in
  let heuristic = Syn.run assay in
  let free = heuristic.Syn.final_breakdown.Cohls.Schedule.devices + 1 in
  let problem =
    {
      Cohls.Layer_problem.ops = Assay.operations assay;
      graph = Assay.dependency_graph assay;
      layer = layering.Cohls.Layering.layers.(0);
      layer_of_op = layering.Cohls.Layering.layer_of_op;
      bound_before = (fun _ -> None);
      available = [];
      rule = Cohls.Binding.Component_oriented;
      max_devices = Syn.default_config.Syn.max_devices;
      transport = (fun _ -> Syn.initial_transport);
      cost = Cost.default;
      weights = Cohls.Schedule.default_weights;
      routed = (fun _ _ -> false);
      device_penalty = (fun _ -> 0);
    }
  in
  let slots = Array.init free (fun id -> Cohls.Ilp_model.Free { id }) in
  Cohls.Ilp_model.model (Cohls.Ilp_model.build problem ~slots)

(* Warm re-solves of [model] from its root basis, the simplex kernel's warm
   path without the tree search. The model is presolved, as
   branch-and-bound does at its root, translated into one form and solved
   cold once, here; the returned thunk re-solves, each warm from that root,
   the down and the up branch of eight of the root's fractional integer
   variables, evenly spaced in variable order. *)
let warm_resolves model =
  let model =
    match Lp.Presolve.run model with
    | Lp.Presolve.Reduced { model; _ } -> model
    | Lp.Presolve.Proved_infeasible -> failwith "warm_resolves: presolve proved infeasible"
  in
  let form = Lp.Simplex.form model in
  match Lp.Simplex.solve form [] with
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> failwith "warm_resolves: no root optimum"
  | Lp.Simplex.Optimal { values; warm; _ } ->
    let fractional =
      List.filter
        (fun v ->
          Lp.Model.is_integer_var model v
          && Float.abs (values.(v) -. Float.round values.(v)) > 1e-6)
        (List.init (Lp.Model.var_count model) Fun.id)
    in
    let branchings =
      List.concat_map
        (fun v ->
          let fl = Numeric.Rat.of_int (int_of_float (Float.floor values.(v))) in
          let lb = Lp.Model.var_lb model v and ub = Lp.Model.var_ub model v in
          [ [ (v, lb, Some fl) ]; [ (v, Numeric.Rat.add fl Numeric.Rat.one, ub) ] ])
        (let stride = max 1 (List.length fractional / 8) in
         List.filteri (fun i _ -> i mod stride = 0 && i / stride < 8) fractional)
    in
    fun () -> List.iter (fun b -> ignore (Lp.Simplex.solve ~warm form b)) branchings

(* The dual pivots [case1_layer_warm]'s sixteen re-solves take: the kernel
   is deterministic, so a change that moves this number changes what the
   warm dual phase computes, not only how fast. *)
let case1_layer_warm_dual_pivots = 566

(* Run [case1_layer_warm] once under telemetry and exit non-zero unless it
   takes exactly [case1_layer_warm_dual_pivots] dual pivots, so the timing
   that follows times the dual phase the pin describes. *)
let pin_dual_pivots case1_layer_warm =
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  let before = Telemetry.counter_value "lp.simplex.dual_pivots" in
  case1_layer_warm ();
  let dual_pivots = Telemetry.counter_value "lp.simplex.dual_pivots" - before in
  if not was_enabled then Telemetry.disable ();
  Format.fprintf fmt "  simplex/case1-layer-warm takes %d dual pivots@." dual_pivots;
  if dual_pivots <> case1_layer_warm_dual_pivots then begin
    Format.fprintf fmt "  expected %d dual pivots: the warm dual phase changed@."
      case1_layer_warm_dual_pivots;
    exit 1
  end

let micro () =
  section "Bechamel micro-benchmarks of the computational kernels";
  let open Bechamel in
  let assay2 = Assays.Gene_expression.testcase () in
  let assay3 = Assays.Rt_qpcr.testcase () in
  let layer1 = case1_layer_model () in
  let case1_layer_warm = warm_resolves layer1 in
  pin_dual_pivots case1_layer_warm;
  let stagef f = Staged.stage f in
  let tests =
    [
      Test.make ~name:"layering/case3"
        (stagef (fun () -> ignore (Cohls.Layering.compute assay3)));
      Test.make ~name:"list-scheduler/case2-pass"
        (stagef (fun () ->
             ignore
               (Syn.run
                  ~config:{ Syn.default_config with Syn.max_iterations = 1 }
                  assay2)));
      Test.make ~name:"simplex/wyndor-float" (stagef wyndor_solve);
      Test.make ~name:"presolve/case1-layer"
        (stagef (fun () -> ignore (Lp.Presolve.run layer1)));
      Test.make ~name:"simplex/case1-layer-warm" (stagef case1_layer_warm);
      Test.make ~name:"maxflow/8x8-grid" (stagef maxflow_grid);
      Test.make ~name:"bigint/mul-256-digit"
        (stagef (fun () ->
             let a = Numeric.Bigint.pow (Numeric.Bigint.of_int 12345) 64 in
             ignore (Numeric.Bigint.mul a a)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let report test =
    let raw = Benchmark.all cfg [ instance ] test in
    let analysed = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ ns_per_run ] ->
          Format.fprintf fmt "  %-28s %12.0f ns/run@." name ns_per_run
        | Some _ | None -> Format.fprintf fmt "  %-28s (no estimate)@." name)
      analysed
  in
  List.iter report tests

(* ---------------------------------------------------------------- json *)

(* Machine-readable perf-trajectory artifact: per-case synthesis quality
   and wall time plus the full telemetry stats of the run, so successive
   benchmark runs can be diffed by tooling rather than by eye. *)
let json_report ~experiment ~wall_seconds =
  let module J = Telemetry.Json in
  let breakdown_json (r : Syn.result) =
    let b = r.Syn.final_breakdown in
    J.Obj
      [
        ("exe_time", J.String (Cohls.Report.exe_time_string r));
        ("fixed_minutes", J.Int b.Cohls.Schedule.fixed_minutes);
        ("devices", J.Int b.Cohls.Schedule.devices);
        ("paths", J.Int b.Cohls.Schedule.paths);
        ("area", J.Int b.Cohls.Schedule.area);
        ("processing", J.Int b.Cohls.Schedule.processing);
        ("weighted", J.Int b.Cohls.Schedule.weighted);
        ("iterations", J.Int (List.length r.Syn.iterations));
        ("runtime_seconds", J.Float r.Syn.runtime_seconds);
      ]
  in
  let case_json case =
    match Hashtbl.find_opt results case.label with
    | None -> None
    | Some (ours, conv) ->
      Some
        (J.Obj
           [
             ("label", J.String case.label);
             ("ops", J.Int case.ops);
             ("indeterminate_ops", J.Int case.indets);
             ( "wall_seconds",
               match Hashtbl.find_opt case_seconds case.label with
               | Some dt -> J.Float dt
               | None -> J.Null );
             ("ours", breakdown_json ours);
             ("conventional", breakdown_json conv);
             ("paper_conventional", J.String case.paper_conv);
             ("paper_ours", J.String case.paper_ours);
           ])
  in
  let meta =
    [
      ("tool", J.String "cohls bench");
      ("experiment", J.String experiment);
      ("wall_seconds", J.Float wall_seconds);
    ]
  in
  let cases_json = J.List (List.filter_map case_json cases) in
  let ilp_json =
    match !ilp_leg with None -> J.Null | Some r -> breakdown_json r
  in
  (* splice: both sides are compact JSON objects, so we can graft the
     telemetry report in as a field without re-parsing it *)
  let telemetry = Telemetry.Export.stats_json () in
  let head =
    J.to_string
      (J.Obj
         (("meta", J.Obj meta) :: [ ("cases", cases_json); ("ilp", ilp_json) ]))
  in
  String.sub head 0 (String.length head - 1) ^ ",\"telemetry\":" ^ telemetry ^ "}"

(* ---------------------------------------------------------------- main *)

let () =
  let json_path = ref None in
  let what = ref None in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
       | "--json" when i + 1 < Array.length Sys.argv ->
         json_path := Some Sys.argv.(i + 1);
         parse (i + 2) |> ignore
       | "--json" ->
         Format.fprintf fmt "--json expects a file argument@.";
         exit 1
       | arg ->
         (match !what with
          | None -> what := Some arg
          | Some _ ->
            Format.fprintf fmt "unexpected argument %s@." arg;
            exit 1);
         parse (i + 1) |> ignore);
      ()
    end
  in
  parse 1;
  let what = Option.value !what ~default:"all" in
  if !json_path <> None then begin
    Telemetry.enable ();
    Telemetry.reset ()
  end;
  let t0 = Telemetry.Clock.now_s () in
  (match what with
   | "table2" -> table2 ()
   | "table3" -> table3 ()
   | "fig4" -> fig4 ()
   | "fig5" -> fig5 ()
   | "fig6" -> fig6 ()
   | "ablation" -> ablation ()
   | "faults" -> faults ()
   | "micro" -> micro ()
   | "all" ->
     table2 ();
     table3 ();
     fig4 ();
     fig5 ();
     fig6 ();
     ablation ();
     faults ();
     micro ()
   | other ->
     Format.fprintf fmt
       "unknown experiment %s (table2|table3|fig4|fig5|fig6|ablation|faults|micro|all)@."
       other;
     exit 1);
  let wall = Telemetry.Clock.now_s () -. t0 in
  (match !json_path with
   | Some path ->
     Telemetry.Export.write_atomic path (json_report ~experiment:what ~wall_seconds:wall);
     Format.fprintf fmt "@.wrote %s@." path
   | None -> ());
  Format.fprintf fmt "@.total bench wall time: %.1fs@." wall
