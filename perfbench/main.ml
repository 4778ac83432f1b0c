(* The cohls benchmark: four workloads, each loading a different stage of
   the synthesis pipeline, driven by one caller in a closed loop (the next
   request is sent when the previous one returns).

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--node-budget N] [--replicate N]
     main.exe --self-test

   A run sets the workload up and runs one untimed pass, then repeats
   *passes* -- a pass is the workload's fixed batch of requests -- until
   [--seconds] have elapsed, timing a further set-up before each pass and
   checking every output on the way. Between requests it runs chunks of a
   fixed reference computation ([Calib]); pass times are reported as medians
   in reference seconds, each pass scaled by the chunks that ran during it.
   The checks: each schedule passes [Schedule.validate], an ILP result is no
   worse than the heuristic on the same assay, results repeat across
   rounds, and an exception or a malformed recovery outcome counts as a
   failed operation instead of ending the run.

   With [--trace 0] the run reports the end-to-end metrics. With [--trace 1]
   the first half of the run is untraced (latency tails, and the wall time
   the tracing overhead is measured against); the second half runs with the
   library's telemetry collector on, and the per-layer metrics come from its
   spans, counters and histograms, normalised per pass. The library gets no
   new span; the benchmark wraps its own calls in [bench.*] and
   [schedule.validate] spans.

   Stdout: a human-readable summary, one JSON record line with parameters,
   provenance and every metric, and as the last line the result object
   {correct, attempted, failed, metrics}. *)

open Microfluidics
module Syn = Cohls.Synthesis
module Sched = Cohls.Schedule
module Recovery = Cohls.Recovery
module J = Telemetry.Json

let now = Unix.gettimeofday

(* Fixed workload constants, recorded with each result; the seed, node
   budget and replication factor are arguments. *)
let ilp_seconds = 2.0 (* ilp-gene-expr per-layer ILP time budget *)

(* Branch-and-bound worker domains. The deterministic wave search returns
   the same result at any domain count, so more domains change only timing,
   and one keeps that timing steady on a small shared machine. *)
let ilp_domains = 1
let rounds_per_pass = 100 (* paper-recovery *)
let fault_rate = 0.1 (* paper-recovery, per device and layer boundary *)
let setup_sample_s = 0.05

type params = {
  seed : int;
  seconds : float;
  trace : bool;
  node_budget : int;  (** ilp-kinase: branch-and-bound nodes per layer solve *)
  replicate : int;  (** scale-layering: copies of the gene-expression protocol *)
}

(* One operation is one synthesis or recovery call. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable synth_ms : float list;
  mutable recover_ms : float list;
  mutable recover_infeasible : int;
  mutable errors : string list;  (** the first few failure messages *)
}

let new_tally () =
  { attempted = 0; failed = 0; synth_ms = []; recover_ms = []; recover_infeasible = 0; errors = [] }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 5 then tally.errors <- msg :: tally.errors

(* Run one operation under its span, time it, and turn an exception (e.g. a
   solver's [Failure]) into a counted failure. A failed operation adds no
   latency sample. The calibration chunks it owes run after it is timed. *)
let operation tally span record f =
  tally.attempted <- tally.attempted + 1;
  let t0 = now () in
  let result =
    match Telemetry.span span f with
    | v ->
      record ((now () -. t0) *. 1000.0);
      Some v
    | exception e ->
      fail tally (Printf.sprintf "%s: %s" span (Printexc.to_string e));
      None
  in
  Calib.after ~seconds:(now () -. t0);
  result

let validate tally what schedule =
  match Telemetry.span "schedule.validate" (fun () -> Sched.validate schedule) with
  | Ok () -> true
  | Error e ->
    fail tally (Printf.sprintf "%s: invalid schedule: %s" what e);
    false

let synthesize tally ?config ?(conventional = false) assay =
  let run = if conventional then Cohls.Baseline.run else Syn.run in
  match
    operation tally "bench.synthesize"
      (fun ms -> tally.synth_ms <- ms :: tally.synth_ms)
      (fun () -> run ?config assay)
  with
  | Some r when validate tally (Assay.name assay) r.Syn.final -> Some r
  | Some _ | None -> None

let recover tally ~plan ~oracle schedule =
  match
    operation tally "bench.recover"
      (fun ms -> tally.recover_ms <- ms :: tally.recover_ms)
      (fun () -> Recovery.execute ~allow_new_devices:true ~plan ~oracle schedule)
  with
  | None -> ()
  | Some (Ok o) ->
    List.iter
      (fun s -> ignore (validate tally "recovered suffix" s))
      o.Recovery.recovered_schedules
  | Some
      (Error
        { Recovery.failure = Recovery.No_feasible_binding _ | Recovery.Too_many_faults _; _ })
    ->
    (* a structured, correct answer: no chip within the cap finishes the assay *)
    tally.recover_infeasible <- tally.recover_infeasible + 1
  | Some (Error e) -> fail tally (Format.asprintf "recovery: %a" Recovery.pp_error e)

type quality = { weighted : int; exe_minutes : int; devices : int; paths : int }

let no_quality = { weighted = 0; exe_minutes = 0; devices = 0; paths = 0 }

let quality_of (r : Syn.result) =
  let b = r.Syn.final_breakdown in
  {
    weighted = b.Sched.weighted;
    exe_minutes = b.Sched.fixed_minutes;
    devices = b.Sched.devices;
    paths = b.Sched.paths;
  }

let add_quality a b =
  {
    weighted = a.weighted + b.weighted;
    exe_minutes = a.exe_minutes + b.exe_minutes;
    devices = a.devices + b.devices;
    paths = a.paths + b.paths;
  }

(* [prepare] is the set-up: it builds and forces the inputs and computes
   the references the checks need. [pass] sends one batch of requests and
   returns the summed quality of its final "ours" results. *)
type prepared = {
  pass : tally -> quality;
  ilp_budget_s : float option;  (** per-layer ILP time budget, if any *)
}

(* The ILP result must be no worse than the deterministic heuristic on the
   same assay: the layer solver only accepts strict improvements. *)
let ilp_workload ~assay ~options =
  let reference = (quality_of (Syn.run assay)).weighted in
  let config =
    {
      Syn.default_config with
      Syn.engine = Cohls.Layer_solver.Ilp { options; extra_free_slots = 1 };
    }
  in
  let pass tally =
    match synthesize tally ~config assay with
    | None -> no_quality
    | Some r ->
      let q = quality_of r in
      if q.weighted > reference then
        fail tally
          (Printf.sprintf "ILP weighted %d exceeds the heuristic's %d" q.weighted reference);
      q
  in
  { pass; ilp_budget_s = options.Lp.Branch_bound.time_limit }

let ilp_kinase p =
  ilp_workload
    ~assay:(Assays.Kinase.testcase ())
    ~options:
      {
        Lp.Branch_bound.default_options with
        Lp.Branch_bound.time_limit = None;
        node_limit = Some p.node_budget;
        deterministic = true;
        domains = ilp_domains;
      }

let ilp_gene_expr _ =
  ilp_workload
    ~assay:(Assays.Gene_expression.testcase ())
    ~options:
      {
        Lp.Branch_bound.default_options with
        Lp.Branch_bound.time_limit = Some ilp_seconds;
        domains = ilp_domains;
      }

let scale_layering p =
  let assay = Assay.replicate (Assays.Gene_expression.base ()) ~copies:p.replicate in
  (match Assay.validate assay with Ok () -> () | Error e -> failwith e);
  let pass tally =
    let ours = synthesize tally assay in
    ignore (synthesize tally ~conventional:true assay);
    match ours with Some r -> quality_of r | None -> no_quality
  in
  { pass; ilp_budget_s = None }

(* Round [r] of assay [k] draws its fault plan and oracle from seed
   [4r + k]; a run's rounds are [seed * rounds_per_pass + 1 ..], so each
   seed gives its own rounds. Oracles are forced into tables here. *)
let paper_recovery p =
  let assays =
    [
      Assays.Kinase.testcase ();
      Assays.Gene_expression.testcase ();
      Assays.Rt_qpcr.testcase ();
      Assays.Mda.testcase ();
    ]
  in
  let rounds =
    Array.init rounds_per_pass (fun i ->
        let round = (p.seed * rounds_per_pass) + i + 1 in
        List.mapi
          (fun k assay ->
            let seed = (4 * round) + k in
            let table =
              Array.init (Assay.operation_count assay)
                (Cohls.Runtime.seeded_oracle ~seed ~max_extra:20 assay)
            in
            (assay, Cohls.Faults.seeded ~seed ~rate:fault_rate, Array.get table))
          assays)
  in
  let pass tally =
    let first = ref None in
    Array.iter
      (fun round ->
        let q =
          List.fold_left
            (fun acc (assay, plan, oracle) ->
              let ours = synthesize tally assay in
              ignore (synthesize tally ~conventional:true assay);
              match ours with
              | None -> acc
              | Some r ->
                recover tally ~plan ~oracle r.Syn.final;
                add_quality acc (quality_of r))
            no_quality round
        in
        match !first with
        | None -> first := Some q
        | Some q0 -> if q <> q0 then fail tally "synthesis results differ between rounds")
      rounds;
    Option.value !first ~default:no_quality
  in
  { pass; ilp_budget_s = None }

let workloads =
  [
    ("ilp-kinase", ilp_kinase);
    ("ilp-gene-expr", ilp_gene_expr);
    ("scale-layering", scale_layering);
    ("paper-recovery", paper_recovery);
  ]

(* One set-up sample: the mean time of as many set-ups as fill
   [setup_sample_s]. A single set-up can take well under a millisecond, too
   short to time on its own. *)
let time_set_up prepare p =
  let t0 = now () in
  let n = ref 0 in
  while !n = 0 || now () -. t0 < setup_sample_s do
    ignore (prepare p);
    incr n
  done;
  (now () -. t0) /. float_of_int !n

type phase = {
  pass_s : float list;  (** seconds of each pass, its calibration chunks left out *)
  pass_ref_s : float list;  (** each pass scaled by its calibration chunks *)
  synth_ref_p50_ms : float list;
      (** per pass, the median of its synthesis calls, scaled as the pass *)
  chunk_ms : float list;  (** per pass, the mean time of its calibration chunks *)
  setup_s : float list;  (** set-up samples, one before each pass, scaled as it *)
  qualities : quality list;
  tally : tally;
}

(* Passes until [seconds] have elapsed; at least one. Each pass is scaled by
   the calibration chunks that ran between its requests (see [Calib]). With
   [~set_up], a set-up sample is taken before each pass and scaled by that
   pass's chunks, so set-up is timed across the whole run, and on the same
   scale, as the passes are. *)
let run_passes ?set_up prepared ~seconds =
  let tally = new_tally () in
  let stop = now () +. seconds in
  let rec go ph =
    let setup = Option.map (fun f -> f ()) set_up in
    let before = List.length tally.synth_ms in
    ignore (Calib.take ());
    let t0 = now () in
    let q = Telemetry.span "bench.pass" (fun () -> prepared.pass tally) in
    let chunks, chunk_s = Calib.take () in
    let pass_s = now () -. t0 -. chunk_s in
    let scale = Calib.scale ~chunks ~chunk_s in
    let fresh = List.length tally.synth_ms - before in
    let calls = List.filteri (fun i _ -> i < fresh) tally.synth_ms in
    let push v l = match v with Some v -> v :: l | None -> l in
    let ph =
      {
        ph with
        pass_s = pass_s :: ph.pass_s;
        pass_ref_s = push (scale pass_s) ph.pass_ref_s;
        synth_ref_p50_ms =
          (if calls = [] then ph.synth_ref_p50_ms
           else push (scale (Stats.median calls)) ph.synth_ref_p50_ms);
        chunk_ms =
          (if chunks = 0 then ph.chunk_ms
           else (chunk_s *. 1000.0 /. float_of_int chunks) :: ph.chunk_ms);
        setup_s = push (Option.bind setup scale) ph.setup_s;
        qualities = q :: ph.qualities;
      }
    in
    Printf.printf "pass %d: %.6f s, %d calibration chunks, %.6f s\n"
      (List.length ph.pass_s) pass_s chunks chunk_s;
    if now () < stop then go ph else ph
  in
  go
    {
      pass_s = [];
      pass_ref_s = [];
      synth_ref_p50_ms = [];
      chunk_ms = [];
      setup_s = [];
      qualities = [];
      tally;
    }

let median_or_zero = function [] -> 0.0 | l -> Stats.median l

(* (name, unit, value); BENCHMARK.json lists the same names, and run.py
   checks that they agree. Times are medians over the run's passes and
   set-up samples, in reference seconds (see [Calib]). *)
let end_to_end (ph : phase) =
  let q f = Stats.median (List.map (fun q -> float_of_int (f q)) ph.qualities) in
  (* the calibration's arrays live outside the OCaml heap *)
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  [
    ("setup_s", "s", median_or_zero ph.setup_s);
    ("wall_ref_s", "s", median_or_zero ph.pass_ref_s);
    ("synth_ref_ms_p50", "ms", median_or_zero ph.synth_ref_p50_ms);
    ("weighted", "cost", q (fun q -> q.weighted));
    ("exe_minutes", "min", q (fun q -> q.exe_minutes));
    ("devices", "count", q (fun q -> q.devices));
    ("paths", "count", q (fun q -> q.paths));
    ("peak_heap_mb", "MB", heap_mb);
  ]

(* Per-layer values from the collector after the traced phase, per pass;
   request tails and ratios come from the untraced phase. *)
let per_layer prepared ~(untraced : phase) ~(traced : phase) =
  let passes = float_of_int (List.length traced.pass_s) in
  let totals = Stats.span_totals (Telemetry.spans ()) in
  let find name =
    List.find_opt (fun (t : Stats.span_total) -> t.Stats.name = name) totals
  in
  let span_s name =
    match find name with Some t -> t.Stats.total_s /. passes | None -> 0.0
  in
  let self_s name =
    match find name with Some t -> t.Stats.self_s /. passes | None -> 0.0
  in
  let max_s name = match find name with Some t -> t.Stats.max_s | None -> 0.0 in
  let counters = Telemetry.counters () in
  let count name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  let per_pass name = count name /. passes in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let histograms = Telemetry.histograms () in
  let refactor_s =
    match List.assoc_opt "lp.simplex.refactor_s" histograms with
    | Some h -> h.Telemetry.sum /. passes
    | None -> 0.0
  in
  let gap_mean, gap_nonfinite =
    match List.assoc_opt "lp.bb.gap" histograms with
    | Some h -> Stats.finite_mean h
    | None -> (0.0, 0)
  in
  let tail p samples = Option.value (Stats.tail ~p samples) ~default:0.0 in
  let tally = untraced.tally in
  let recoveries = float_of_int (List.length tally.recover_ms) in
  let ops = float_of_int (untraced.tally.attempted + traced.tally.attempted) in
  let failed = float_of_int (untraced.tally.failed + traced.tally.failed) in
  let s name v = (name, "s", v) and n name v = (name, "count", v) in
  let r name v = (name, "ratio", v) in
  ( totals,
    [
      s "layering.compute_s" (span_s "layering.compute");
      n "layering.min_cuts" (per_pass "layering.min_cuts");
      n "layering.evictions" (per_pass "layering.evictions");
      n "layering.layers" (per_pass "layering.layers");
      s "layer.heuristic_s" (span_s "layer.heuristic");
      n "layer.solves" (per_pass "layer.solves");
      s "synthesis.pass.self_s" (self_s "synthesis.pass");
      n "synthesis.passes" (per_pass "synthesis.passes");
      n "synthesis.passes_accepted" (per_pass "synthesis.passes_accepted");
      s "layer.ilp_s" (span_s "layer.ilp");
      s "layer.ilp.max_s" (max_s "layer.ilp");
      s "layer.ilp.self_s" (self_s "layer.ilp");
      n "ilp.model.vars" (per_pass "ilp.model.vars");
      n "ilp.model.constrs" (per_pass "ilp.model.constrs");
      r "layer.ilp_improved_ratio"
        (ratio (count "layer.ilp_improved")
           (count "layer.ilp_improved" +. count "layer.ilp_rejected"));
      (* presolve: until it has a span of its own, it is most of the time
         lp.bb.solve spends outside lp.simplex.solve *)
      s "lp.bb.solve_s" (span_s "lp.bb.solve");
      s "lp.bb.solve.self_s" (self_s "lp.bb.solve");
      n "lp.presolve.rounds" (per_pass "lp.presolve.rounds");
      n "lp.presolve.tightenings" (per_pass "lp.presolve.tightenings");
      n "lp.presolve.rows_removed" (per_pass "lp.presolve.rows_removed");
      n "lp.presolve.cols_fixed" (per_pass "lp.presolve.cols_fixed");
      s "lp.simplex.solve_s" (span_s "lp.simplex.solve");
      n "lp.simplex.relaxations" (per_pass "lp.simplex.relaxations");
      n "lp.simplex.pivots" (per_pass "lp.simplex.pivots");
      n "lp.simplex.dual_pivots" (per_pass "lp.simplex.dual_pivots");
      n "lp.simplex.refactorisations" (per_pass "lp.simplex.refactorisations");
      s "lp.simplex.refactor_s" refactor_s;
      r "lp.bb.warm_hit_rate"
        (ratio (count "lp.bb.warm_hits")
           (count "lp.bb.warm_hits" +. count "lp.bb.warm_fallbacks"));
      n "lp.bb.nodes" (per_pass "lp.bb.nodes");
      ("lp.bb.nodes_per_s", "1/s", ratio (per_pass "lp.bb.nodes") (span_s "lp.bb.solve"));
      n "lp.bb.pruned_by_bound" (per_pass "lp.bb.pruned_by_bound");
      r "lp.bb.gap_mean" gap_mean;
      s "schedule.validate_s" (span_s "schedule.validate");
      s "recovery.resynthesis_s" (span_s "recovery.resynthesis");
      n "recovery.invocations" (per_pass "recovery.invocations");
      n "recovery.failed" (per_pass "recovery.failed");
      n "faults.injected" (per_pass "faults.injected");
      n "runtime.layer_interventions" (per_pass "runtime.layer_interventions");
      s "bench.pass_s" (span_s "bench.pass");
      s "bench.pass.self_s" (self_s "bench.pass");
      s "wall_s" (median_or_zero untraced.pass_s);
      ("calibration_chunk_ms", "ms", median_or_zero untraced.chunk_ms);
      r "trace_overhead"
        (ratio (median_or_zero traced.pass_ref_s) (median_or_zero untraced.pass_ref_s)
        -. 1.0);
      ("synth_ms_p99", "ms", tail 99 tally.synth_ms);
      n "synth_samples" (float_of_int (List.length tally.synth_ms));
      ("recover_ms_p50", "ms", median_or_zero tally.recover_ms);
      ("recover_ms_p99", "ms", tail 99 tally.recover_ms);
      n "recover_samples" recoveries;
      r "recover_infeasible_ratio" (ratio (float_of_int tally.recover_infeasible) recoveries);
      r "fail_ratio" (ratio failed ops);
    ]
    (* Only a per-layer time budget lets a layer overrun, a relaxation hit
       the deadline, or a root relaxation stop unfinished (an infinite gap):
       under a node budget these read 0 whatever the code does, so they are
       reported on time-budgeted workloads alone. *)
    @
    match prepared.ilp_budget_s with
    | None -> []
    | Some budget ->
      [
        s "layer.ilp.overrun_max_s"
          (match find "layer.ilp" with Some t -> t.Stats.max_s -. budget | None -> 0.0);
        n "lp.simplex.deadline_aborts" (per_pass "lp.simplex.deadline_aborts");
        n "lp.bb.gap_nonfinite" (float_of_int gap_nonfinite /. passes);
      ] )

let span_table totals ~passes =
  Printf.printf "\n%-40s %7s %12s %12s  (per pass; [self] = not in child spans)\n"
    "span" "calls" "total_s" "max_s";
  List.iter
    (fun (t : Stats.span_total) ->
      Printf.printf "%-40s %7d %12.6f %12.6f\n" t.Stats.name t.Stats.calls
        (t.Stats.total_s /. passes) t.Stats.max_s;
      Printf.printf "%-40s %7s %12.6f\n" ("  " ^ t.Stats.name ^ " [self]") ""
        (t.Stats.self_s /. passes))
    totals

type outcome = { tallies : tally list; metrics : (string * string * float) list }

let total f o = List.fold_left (fun acc t -> acc + f t) 0 o.tallies

let run_workload p prepare =
  let prepared = prepare p in
  (* One untimed, checked pass first, to warm caches and heap. *)
  let warm_up = new_tally () in
  ignore (prepared.pass warm_up);
  if not p.trace then begin
    let ph =
      run_passes prepared ~seconds:p.seconds ~set_up:(fun () -> time_set_up prepare p)
    in
    { tallies = [ warm_up; ph.tally ]; metrics = end_to_end ph }
  end
  else begin
    let untraced = run_passes prepared ~seconds:(p.seconds /. 2.0) in
    Telemetry.reset ();
    Telemetry.enable ();
    let traced = run_passes prepared ~seconds:(p.seconds /. 2.0) in
    Telemetry.disable ();
    let totals, metrics = per_layer prepared ~untraced ~traced in
    span_table totals ~passes:(float_of_int (List.length traced.pass_s));
    { tallies = [ warm_up; untraced.tally; traced.tally ]; metrics }
  end

(* [J.Float] prints six decimals, which leaves a sub-millisecond set-up
   time three digits; a metric's value is written as its exact decimal
   string instead, and run.py turns it back into a JSON number. *)
let metrics_json metrics =
  J.Obj
    (List.map
       (fun (name, unit, v) ->
         ( name,
           J.Obj [ ("value", J.String (Printf.sprintf "%.17g" v)); ("unit", J.String unit) ] ))
       metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let node_budget = ref 300 and replicate = ref 120 in
  let nproc = ref 0 and commit = ref "unknown" and source_digest = ref "unknown" in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME a workload, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--node-budget", Arg.Set_int node_budget, "N ilp-kinase nodes per layer solve");
      ("--replicate", Arg.Set_int replicate, "N scale-layering protocol copies");
      ("--nproc", Arg.Set_int nproc, "N processors available (recorded)");
      ("--commit", Arg.Set_string commit, "ID source commit (recorded)");
      ("--source-digest", Arg.Set_string source_digest, "HEX source digest (recorded)");
      ("--self-test", Arg.Set self_test, " run the self-tests only");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let self_test_failures = Selftest.run () in
  List.iter (Printf.eprintf "self-test failed: %s\n") self_test_failures;
  if self_test_failures <> [] then exit 1;
  if !self_test then begin
    print_endline "self-tests passed";
    exit 0
  end;
  let selected =
    if !workload = "all" then workloads
    else List.filter (fun (name, _) -> name = !workload) workloads
  in
  if selected = [] || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0
     || !node_budget < 1 || !replicate < 1
  then begin
    prerr_endline (Arg.usage_string spec usage);
    exit 2
  end;
  let nproc = if !nproc > 0 then !nproc else Domain.recommended_domain_count () in
  let outcomes =
    List.map
      (fun (name, prepare) ->
        let p =
          {
            seed = !seed;
            seconds = !seconds;
            trace = !trace = 1;
            node_budget = !node_budget;
            replicate = !replicate;
          }
        in
        let o = run_workload p prepare in
        let attempted = total (fun t -> t.attempted) o in
        let failed = total (fun t -> t.failed) o in
        Printf.printf "\n%s (seed %d, %s): %d operations, %d failed\n" name p.seed
          (if p.trace then "traced" else "untraced")
          attempted failed;
        List.iter
          (fun t -> List.iter (Printf.printf "  failure: %s\n") (List.rev t.errors))
          o.tallies;
        List.iter
          (fun (name, unit, v) -> Printf.printf "  %-30s %16.6f %s\n" name v unit)
          o.metrics;
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("benchmark", J.String "cohls");
                  ( "parameters",
                    J.Obj
                      [
                        ("workload", J.String name);
                        ("seed", J.Int p.seed);
                        ("seconds", J.Float p.seconds);
                        ("node_budget", J.Int p.node_budget);
                        ("replicate", J.Int p.replicate);
                        ("ilp_seconds", J.Float ilp_seconds);
                        ("rounds_per_pass", J.Int rounds_per_pass);
                        ("fault_rate", J.Float fault_rate);
                        ("setup_sample_s", J.Float setup_sample_s);
                        ("reference_chunk_s", J.Float Calib.reference_s);
                        ("calibration_share", J.Float Calib.share);
                      ] );
                  ( "provenance",
                    J.Obj
                      [
                        ("commit", J.String !commit);
                        ("source_digest", J.String !source_digest);
                        ("nproc", J.Int nproc);
                        ("ocaml", J.String Sys.ocaml_version);
                        ("domains", J.Int ilp_domains);
                        ("traced", J.Bool p.trace);
                      ] );
                  ("attempted", J.Int attempted);
                  ("failed", J.Int failed);
                  ("metrics", metrics_json o.metrics);
                ]));
        (name, o))
      selected
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + total f o) 0 outcomes in
  let attempted = sum (fun t -> t.attempted) and failed = sum (fun t -> t.failed) in
  let metrics =
    match outcomes with
    | [ (_, o) ] -> o.metrics
    | _ ->
      List.concat_map
        (fun (name, o) -> List.map (fun (m, u, v) -> (name ^ "/" ^ m, u, v)) o.metrics)
        outcomes
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json metrics);
          ]));
  if failed > 0 then exit 1
