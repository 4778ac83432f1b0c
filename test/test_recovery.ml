(* Property-style tests for fault injection and layer-boundary recovery:
   seeded fault plans over the bundled assays must yield recovered
   schedules that validate and respect the layering invariants, executed
   operations must never be re-scheduled, and a zero fault rate must
   reproduce the fault-free trace byte-for-byte. *)

open Microfluidics

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int

let bundled =
  [
    ("kinase", lazy (Assays.Kinase.testcase ()));
    ("gene-expression", lazy (Assays.Gene_expression.testcase ()));
    ("mda", lazy (Assays.Mda.testcase ()));
    ("chip", lazy (Assays.Chip_assay.testcase ()));
  ]

let synthesised = Hashtbl.create 8

let schedule_of label assay =
  match Hashtbl.find_opt synthesised label with
  | Some s -> s
  | None ->
    let r = Cohls.Synthesis.run (Lazy.force assay) in
    Hashtbl.replace synthesised label r.Cohls.Synthesis.final;
    r.Cohls.Synthesis.final

(* ---------- fault plans ---------- *)

let test_plan_deterministic () =
  let plan = Cohls.Faults.seeded ~seed:7 ~rate:0.3 in
  for device = 0 to 20 do
    for layer = 0 to 5 do
      check bool "probe is reproducible" true
        (Cohls.Faults.probe plan ~device ~layer
         = Cohls.Faults.probe plan ~device ~layer)
    done
  done

let test_plan_rates () =
  let zero = Cohls.Faults.seeded ~seed:3 ~rate:0.0 in
  let one = Cohls.Faults.seeded ~seed:3 ~rate:1.0 in
  for device = 0 to 30 do
    check bool "rate 0 never faults" true
      (Cohls.Faults.probe zero ~device ~layer:device = None);
    check bool "rate 1 always faults" true
      (Cohls.Faults.probe one ~device ~layer:device <> None);
    check bool "none never faults" true
      (Cohls.Faults.probe Cohls.Faults.none ~device ~layer:device = None)
  done;
  (match Cohls.Faults.seeded ~seed:1 ~rate:1.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "rate > 1 must be rejected")

(* ---------- rate 0.0 reproduces the fault-free trace ---------- *)

let test_zero_rate_byte_for_byte () =
  List.iter
    (fun (label, assay) ->
      let s = schedule_of label assay in
      let oracle = Cohls.Runtime.seeded_oracle ~seed:9 ~max_extra:15 (Lazy.force assay) in
      let reference =
        match Cohls.Runtime.execute s oracle with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun plan ->
          match Cohls.Recovery.execute ~plan ~oracle s with
          | Ok o ->
            check bool (label ^ ": no recovery attempts") true
              (o.Cohls.Recovery.attempts = []);
            check bool (label ^ ": identical trace") true
              (o.Cohls.Recovery.trace = reference)
          | Error e ->
            Alcotest.fail (Format.asprintf "%s: %a" label Cohls.Recovery.pp_error e))
        [ Cohls.Faults.none; Cohls.Faults.seeded ~seed:123 ~rate:0.0 ])
    bundled

(* ---------- seeded sweep invariants ---------- *)

let ops_started_exactly_once label assay (trace : Cohls.Runtime.trace) =
  let n = Assay.operation_count (Lazy.force assay) in
  let starts = Array.make n 0 and finishes = Array.make n 0 in
  List.iter
    (fun (e : Cohls.Runtime.event) ->
      match e.Cohls.Runtime.kind with
      | `Start -> starts.(e.Cohls.Runtime.op) <- starts.(e.Cohls.Runtime.op) + 1
      | `Finish -> finishes.(e.Cohls.Runtime.op) <- finishes.(e.Cohls.Runtime.op) + 1)
    trace.Cohls.Runtime.events;
  Array.iteri
    (fun op c ->
      check int_t (Printf.sprintf "%s: op %d started exactly once" label op) 1 c;
      check int_t
        (Printf.sprintf "%s: op %d finished exactly once" label op)
        1 finishes.(op))
    starts

(* Every dependency of the original assay holds in the merged trace, also
   across segments: a recovered suffix must keep its internal edges. *)
let dependencies_respected label assay (trace : Cohls.Runtime.trace) =
  let a = Lazy.force assay in
  let n = Assay.operation_count a in
  let start = Array.make n 0 and finish = Array.make n 0 in
  List.iter
    (fun (e : Cohls.Runtime.event) ->
      match e.Cohls.Runtime.kind with
      | `Start -> start.(e.Cohls.Runtime.op) <- e.Cohls.Runtime.time
      | `Finish -> finish.(e.Cohls.Runtime.op) <- e.Cohls.Runtime.time)
    trace.Cohls.Runtime.events;
  Flowgraph.Digraph.iter_edges
    (fun p c ->
      check bool
        (Printf.sprintf "%s: op %d starts after its parent %d finished" label c p)
        true
        (start.(c) >= finish.(p)))
    (Assay.dependency_graph a)

let boundaries_strictly_increasing label (trace : Cohls.Runtime.trace) =
  let rec go = function
    | (l1, t1) :: ((l2, t2) :: _ as rest) ->
      check bool (label ^ ": global layer indices strictly increase") true (l1 < l2);
      check bool (label ^ ": boundary times never regress") true (t1 <= t2);
      go rest
    | [ _ ] | [] -> ()
  in
  go trace.Cohls.Runtime.layer_boundaries

let test_seeded_sweep () =
  let completed_with_recovery = ref 0 in
  let structured_failures = ref 0 in
  List.iter
    (fun (label, assay) ->
      let s = schedule_of label assay in
      let oracle = Cohls.Runtime.seeded_oracle ~seed:2 ~max_extra:10 (Lazy.force assay) in
      List.iter
        (fun allow_new_devices ->
          for seed = 1 to 10 do
            let plan = Cohls.Faults.seeded ~seed ~rate:0.1 in
            match Cohls.Recovery.execute ~allow_new_devices ~plan ~oracle s with
            | Ok o ->
              if o.Cohls.Recovery.attempts <> [] then incr completed_with_recovery;
              ops_started_exactly_once label assay o.Cohls.Recovery.trace;
              dependencies_respected label assay o.Cohls.Recovery.trace;
              boundaries_strictly_increasing label o.Cohls.Recovery.trace;
              List.iter
                (fun rs ->
                  check bool (label ^ ": recovered schedule validates") true
                    (Cohls.Schedule.validate rs = Ok ());
                  check bool (label ^ ": recovered layering invariants") true
                    (Cohls.Layering.check rs.Cohls.Schedule.layering = Ok ()))
                o.Cohls.Recovery.recovered_schedules;
              check bool (label ^ ": one recovered schedule per attempt") true
                (List.length o.Cohls.Recovery.recovered_schedules
                 = List.length o.Cohls.Recovery.attempts);
              check bool (label ^ ": makespan covers last event") true
                (List.for_all
                   (fun (e : Cohls.Runtime.event) ->
                     e.Cohls.Runtime.time <= o.Cohls.Recovery.trace.Cohls.Runtime.total_minutes)
                   o.Cohls.Recovery.trace.Cohls.Runtime.events)
            | Error _ ->
              (* a structured Recovery_failed is an acceptable outcome (a
                 single-instance specialised device died); an exception is
                 not, and would fail the test harness *)
              incr structured_failures
          done)
        [ false; true ])
    bundled;
  check bool "sweep exercised at least one successful recovery" true
    (!completed_with_recovery > 0);
  check bool "sweep exercised the strict no-new-devices failure path" true
    (!structured_failures > 0)

(* ---------- recovery under the ILP engine ---------- *)

(* Chip inventory plus the rendered layers: equal exactly when two
   schedules bind, time and route identically. *)
let fingerprint (s : Cohls.Schedule.t) =
  ( Format.asprintf "%a" Cohls.Schedule.pp s,
    Chip.devices s.Cohls.Schedule.chip,
    Chip.path_usage s.Cohls.Schedule.chip )

let test_ilp_engine_recovery () =
  (* Re-synthesis hands the surviving devices to the layer ILP as fixed
     slots. Under a node budget with no time limit the search is
     deterministic, so the outcome must not depend on whether telemetry
     is recording. *)
  let assay = Assays.Kinase.testcase () in
  let config =
    {
      Cohls.Synthesis.default_config with
      Cohls.Synthesis.engine =
        Cohls.Layer_solver.Ilp
          {
            options =
              {
                Lp.Branch_bound.default_options with
                Lp.Branch_bound.time_limit = None;
                node_limit = Some 100;
              };
            extra_free_slots = 1;
          };
    }
  in
  Telemetry.disable ();
  let s = (Cohls.Synthesis.run ~config assay).Cohls.Synthesis.final in
  let oracle = Cohls.Runtime.seeded_oracle ~seed:1 ~max_extra:20 assay in
  let plan = Cohls.Faults.seeded ~seed:4 ~rate:0.2 in
  let run () =
    match Cohls.Recovery.execute ~config ~plan ~oracle s with
    | Ok o -> o
    | Error e -> Alcotest.fail (Format.asprintf "%a" Cohls.Recovery.pp_error e)
  in
  let quiet = run () in
  Telemetry.enable ();
  Telemetry.reset ();
  let traced = Fun.protect ~finally:Telemetry.disable run in
  check bool "the plan fires a recovery" true (quiet.Cohls.Recovery.attempts <> []);
  List.iter
    (fun rs ->
      check bool "recovered schedule validates" true (Cohls.Schedule.validate rs = Ok ()))
    (quiet.Cohls.Recovery.recovered_schedules @ traced.Cohls.Recovery.recovered_schedules);
  check bool "same trace" true (quiet.Cohls.Recovery.trace = traced.Cohls.Recovery.trace);
  check bool "same fault stats" true (quiet.Cohls.Recovery.stats = traced.Cohls.Recovery.stats);
  check bool "same recovered schedules" true
    (List.map fingerprint quiet.Cohls.Recovery.recovered_schedules
     = List.map fingerprint traced.Cohls.Recovery.recovered_schedules);
  let masked (o : Cohls.Recovery.outcome) =
    List.map
      (fun (a : Cohls.Recovery.attempt) -> { a with Cohls.Recovery.resynth_seconds = 0.0 })
      o.Cohls.Recovery.attempts
  in
  check bool "same attempts (latency masked)" true (masked quiet = masked traced)

(* ---------- executed prefix is untouched ---------- *)

let test_prefix_preserved () =
  (* find a faulted run whose first fault is at boundary >= 1 and compare
     the executed prefix against the fault-free replay: recovery must not
     touch (or re-schedule) anything already run *)
  let label, assay = List.nth bundled 1 (* gene-expression *) in
  let s = schedule_of label assay in
  let oracle = Cohls.Runtime.seeded_oracle ~seed:2 ~max_extra:10 (Lazy.force assay) in
  let reference =
    match Cohls.Runtime.execute s oracle with Ok t -> t | Error e -> Alcotest.fail e
  in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 50 do
    incr seed;
    let plan = Cohls.Faults.seeded ~seed:!seed ~rate:0.1 in
    match Cohls.Recovery.execute ~allow_new_devices:true ~plan ~oracle s with
    | Ok o -> begin
      match o.Cohls.Recovery.attempts with
      | { Cohls.Recovery.at_global_layer; _ } :: _
        when at_global_layer >= 1
             && o.Cohls.Recovery.stats.Cohls.Runtime.transient_retries = 0 -> begin
        found := true;
        (* ops of layers before the fault boundary executed identically *)
        let executed_ops =
          List.concat_map
            (fun (l : Cohls.Schedule.layer_schedule) ->
              if l.Cohls.Schedule.layer_index < at_global_layer then
                List.map (fun (e : Cohls.Schedule.entry) -> e.Cohls.Schedule.op)
                  l.Cohls.Schedule.entries
              else [])
            (Array.to_list s.Cohls.Schedule.layers)
        in
        let prefix_of (t : Cohls.Runtime.trace) =
          List.filter
            (fun (e : Cohls.Runtime.event) -> List.mem e.Cohls.Runtime.op executed_ops)
            t.Cohls.Runtime.events
        in
        check bool "executed prefix identical to fault-free replay" true
          (prefix_of o.Cohls.Recovery.trace = prefix_of reference)
      end
      | _ -> ()
    end
    | Error _ -> ()
  done;
  check bool "found a mid-assay permanent fault within 50 seeds" true !found

(* ---------- no feasible device set ---------- *)

let test_no_feasible_devices_is_structured () =
  let a = Assay.create ~name:"lonely" in
  let _op =
    Assay.add_operation a ~container:Components.Container.Ring
      ~accessories:[ Components.Accessory.Pump ] ~duration:(Operation.Fixed 10) "mix"
  in
  let config = { Cohls.Synthesis.default_config with Cohls.Synthesis.max_devices = 1 } in
  let r = Cohls.Synthesis.run ~config a in
  let device =
    match Cohls.Schedule.binding r.Cohls.Synthesis.final 0 with
    | Some d -> d
    | None -> Alcotest.fail "op unbound"
  in
  (* pick a seed whose plan kills that device permanently at boundary 0 *)
  let seed = ref 0 in
  let plan = ref Cohls.Faults.none in
  (try
     for s = 1 to 1000 do
       let p = Cohls.Faults.seeded ~seed:s ~rate:1.0 in
       if Cohls.Faults.probe p ~device ~layer:0 = Some Cohls.Faults.Permanent then begin
         seed := s;
         plan := p;
         raise Exit
       end
     done
   with Exit -> ());
  check bool "found a killing seed" true (!seed > 0);
  match
    Cohls.Recovery.execute ~config ~plan:!plan ~oracle:(fun _ -> 10)
      r.Cohls.Synthesis.final
  with
  | Ok _ -> Alcotest.fail "recovery without any surviving device must fail"
  | Error e -> begin
    match e.Cohls.Recovery.failure with
    | Cohls.Recovery.No_feasible_binding { op } ->
      check int_t "reports the original op id" 0 op;
      check bool "reports the dead device" true
        (e.Cohls.Recovery.dead_devices = [ device ])
    | _ -> Alcotest.fail "expected No_feasible_binding"
  end

(* ---------- transient faults ---------- *)

let test_transient_backoff_extends_makespan () =
  let label, assay = List.nth bundled 1 in
  let s = schedule_of label assay in
  let oracle = Cohls.Runtime.seeded_oracle ~seed:2 ~max_extra:10 (Lazy.force assay) in
  let baseline =
    match Cohls.Runtime.execute s oracle with
    | Ok t -> t.Cohls.Runtime.total_minutes
    | Error e -> Alcotest.fail e
  in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 100 do
    incr seed;
    let plan = Cohls.Faults.seeded ~seed:!seed ~rate:0.08 in
    match Cohls.Recovery.execute ~plan ~oracle s with
    | Ok o
      when o.Cohls.Recovery.attempts = []
           && o.Cohls.Recovery.stats.Cohls.Runtime.transient_retries > 0 ->
      found := true;
      check bool "backoff minutes extend the makespan" true
        (o.Cohls.Recovery.trace.Cohls.Runtime.total_minutes > baseline)
    | Ok _ | Error _ -> ()
  done;
  check bool "found a transient-only run within 100 seeds" true !found

(* ---------- telemetry ---------- *)

let test_counters_recorded () =
  Telemetry.enable ();
  Telemetry.reset ();
  let label, assay = List.nth bundled 1 in
  let s = schedule_of label assay in
  let oracle = Cohls.Runtime.seeded_oracle ~seed:2 ~max_extra:10 (Lazy.force assay) in
  let plan = Cohls.Faults.seeded ~seed:1 ~rate:0.1 in
  (match Cohls.Recovery.execute ~allow_new_devices:true ~plan ~oracle s with
   | Ok o -> check bool "run recovered" true (o.Cohls.Recovery.attempts <> [])
   | Error e -> Alcotest.fail (Format.asprintf "%a" Cohls.Recovery.pp_error e));
  check bool "faults.injected counted" true
    (Telemetry.counter_value "faults.injected" > 0);
  check bool "recovery.invocations counted" true
    (Telemetry.counter_value "recovery.invocations" > 0);
  check bool "recovery.resynth_layers counted" true
    (Telemetry.counter_value "recovery.resynth_layers" > 0);
  Telemetry.disable ()

let test_retry_oracle_cap_counter () =
  Telemetry.enable ();
  Telemetry.reset ();
  let a = Assay.create ~name:"cap" in
  let _i =
    Assay.add_operation a
      ~duration:(Operation.Indeterminate { min_minutes = 5 })
      "capture"
  in
  let oracle =
    Cohls.Runtime.retry_oracle ~max_attempts:2 ~seed:1
      ~success_probability:0.000001 ~attempt_minutes:7 a
  in
  check int_t "duration capped at max_attempts * attempt_minutes" 14 (oracle 0);
  check bool "capped counter bumped" true
    (Telemetry.counter_value "runtime.retry_oracle.capped" >= 1);
  (try
     let (_ : Cohls.Runtime.oracle) =
       Cohls.Runtime.retry_oracle ~max_attempts:0 ~seed:1 ~success_probability:0.5
         ~attempt_minutes:1 a
     in
     Alcotest.fail "max_attempts < 1 must be rejected"
   with Invalid_argument _ -> ());
  Telemetry.disable ()

let () =
  Alcotest.run "recovery"
    [
      ( "faults",
        [
          Alcotest.test_case "plan is deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "rate extremes" `Quick test_plan_rates;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rate 0.0 reproduces the fault-free trace" `Quick
            test_zero_rate_byte_for_byte;
          Alcotest.test_case "seeded sweep invariants" `Slow test_seeded_sweep;
          Alcotest.test_case "ILP engine, telemetry on and off" `Slow
            test_ilp_engine_recovery;
          Alcotest.test_case "executed prefix preserved" `Quick test_prefix_preserved;
          Alcotest.test_case "no feasible device set is structured" `Quick
            test_no_feasible_devices_is_structured;
          Alcotest.test_case "transient backoff extends makespan" `Quick
            test_transient_backoff_extends_makespan;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "fault/recovery counters" `Quick test_counters_recorded;
          Alcotest.test_case "retry oracle cap" `Quick test_retry_oracle_cap_counter;
        ] );
    ]
