(* Command-line front end for the component-oriented synthesiser.

     cohls_cli synth    --case case2 --rule conventional --schedule
     cohls_cli layering --case case3 --threshold 5
     cohls_cli execute  --case case2 --seed 7 --max-extra 20
     cohls_cli compare  --case case1 *)

open Cmdliner
module Syn = Cohls.Synthesis

let assay_of_case name =
  match name with
  | "case1" | "kinase" -> Ok (Assays.Kinase.testcase ())
  | "case2" | "gene-expression" -> Ok (Assays.Gene_expression.testcase ())
  | "case3" | "rt-qpcr" -> Ok (Assays.Rt_qpcr.testcase ())
  | "chip" | "auto-chip" -> Ok (Assays.Chip_assay.testcase ())
  | "mda" -> Ok (Assays.Mda.testcase ())
  | other ->
    (match String.index_opt other ':' with
     | Some i when String.sub other 0 i = "random" -> begin
       match int_of_string_opt (String.sub other (i + 1) (String.length other - i - 1)) with
       | Some seed ->
         Ok (Assays.Random_assay.generate ~seed Assays.Random_assay.default_params)
       | None -> Error (`Msg "random:<seed> expects an integer seed")
     end
     | Some _ | None ->
       Error (`Msg (Printf.sprintf "unknown case %S (case1|case2|case3|chip|mda|random:<seed>)" other)))

let case_arg =
  let doc = "Test case: case1 (kinase), case2 (gene-expression), case3 (rt-qpcr) chip (auto-chip), mda, or random:<seed>." in
  Arg.(value & opt string "case1" & info [ "c"; "case" ] ~docv:"CASE" ~doc)

let file_arg =
  let doc = "Read the assay from a .assay description file instead of --case (see lib/microfluidics/assay_text.mli for the grammar)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let assay_of ~case ~file =
  match file with
  | Some path -> begin
    match Microfluidics.Assay_text.of_file path with
    | Ok a -> Ok a
    | Error e ->
      Error (`Msg (Format.asprintf "%s: %a" path Microfluidics.Assay_text.pp_error e))
  end
  | None -> assay_of_case case

let rule_arg =
  let doc = "Binding rule: component (ours) or conventional (exact-signature baseline)." in
  Arg.(value & opt (enum [ ("component", `Component); ("conventional", `Conventional) ]) `Component
       & info [ "rule" ] ~doc)

(* [base] restricted to the values satisfying [ok]; any other value is a
   usage error saying it must be [what]. *)
let checked base ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive = checked Arg.int ~what:"an integer >= 1" (fun n -> n >= 1)

let threshold_arg =
  let doc = "Maximum indeterminate operations per layer (Algorithm 1), at least 1." in
  Arg.(value & opt positive 10 & info [ "t"; "threshold" ] ~doc)

let devices_arg =
  let doc = "Device cap |D|." in
  Arg.(value & opt int 25 & info [ "d"; "devices" ] ~doc)

let iterations_arg =
  let doc = "Maximum progressive re-synthesis iterations, at least 1." in
  Arg.(value & opt positive 5 & info [ "iterations" ] ~doc)

let ilp_arg =
  let doc = "Solve each layer with the exact ILP (time-limited branch-and-bound warm-started by the greedy schedule)." in
  Arg.(value & flag & info [ "ilp" ] ~doc)

let ilp_seconds_arg =
  let doc = "Per-layer ILP time limit in seconds, finite and positive." in
  let seconds =
    checked Arg.float ~what:"a finite number > 0" (fun s ->
        Float.is_finite s && s > 0.0)
  in
  Arg.(value & opt seconds 10.0 & info [ "ilp-seconds" ] ~doc)

let schedule_arg =
  let doc = "Print the full schedule, not just the summary." in
  Arg.(value & flag & info [ "schedule" ] ~doc)

let gantt_arg =
  let doc = "Print an ASCII Gantt chart of the schedule." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let control_arg =
  let doc = "Print the control layer (valves) and the actuation switch count." in
  Arg.(value & flag & info [ "control" ] ~doc)

let physical_arg =
  let doc = "Print the floorplan and routed-channel quality of the resulting chip." in
  Arg.(value & flag & info [ "physical" ] ~doc)

let dot_arg =
  let doc = "Write a Graphviz rendering of the bound schedule to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let csv_arg =
  let doc = "Write the schedule as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record telemetry and write a Chrome trace_event JSON of the run to \
     $(docv) (open in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let config_of ~rule ~threshold ~devices ~iterations ~ilp ~ilp_seconds =
  let engine =
    if ilp then
      Cohls.Layer_solver.Ilp
        {
          options =
            {
              Lp.Branch_bound.default_options with
              Lp.Branch_bound.time_limit = Some ilp_seconds;
            };
          extra_free_slots = 1;
        }
    else Cohls.Layer_solver.Heuristic
  in
  let config =
    {
      Syn.default_config with
      Syn.threshold;
      max_devices = devices;
      max_iterations = iterations;
      engine;
    }
  in
  match rule with
  | `Component -> config
  | `Conventional -> Cohls.Baseline.config config

let handle_result = function
  | Ok () -> `Ok ()
  | Error (`Msg m) -> `Error (false, m)

(* List_scheduler.No_device must never escape as a backtrace: every
   subcommand that synthesises funnels through this guard and exits with a
   clean diagnostic and nonzero status instead. *)
let catch_no_device ~devices f =
  try f () with
  | Cohls.List_scheduler.No_device op ->
    Error
      (`Msg
         (Printf.sprintf "device cap %d too small (operation %d fits no device)"
            devices op))
  | Sys_error e -> Error (`Msg e)

(* ---------- synth ---------- *)

let write_file path content = Telemetry.Export.write_atomic path content

(* Enable the collector for the duration of [f] when a trace file was
   requested, then dump the Chrome trace. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Telemetry.enable ();
    Telemetry.reset ();
    let result = f () in
    write_file path (Telemetry.Export.chrome_trace ());
    Telemetry.disable ();
    Format.printf "wrote %s@." path;
    result

let synth case file rule threshold devices iterations ilp ilp_seconds
    schedule gantt control physical dot csv trace =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of ~case ~file in
     let config =
       config_of ~rule ~threshold ~devices ~iterations ~ilp ~ilp_seconds
     in
     let run () =
       let r = Syn.run ~config assay in
       Format.printf "%a@." Cohls.Report.schedule_summary r;
       if schedule then Format.printf "@.%a@." Cohls.Schedule.pp r.Syn.final;
       if gantt then Format.printf "@.%s@." (Export.Gantt.render r.Syn.final);
       if control then begin
         let layer = Control.Control_layer.of_chip r.Syn.final.Cohls.Schedule.chip in
         let timeline = Control.Actuation.synthesise layer r.Syn.final in
         Format.printf "@.%a@." Control.Control_layer.pp layer;
         Format.printf "actuation: %d valve switching events over %dm@."
           (Control.Actuation.switch_count timeline)
           timeline.Control.Actuation.horizon
       end;
       if physical then begin
         let design = Physical.Physical_design.of_schedule Microfluidics.Cost.default r.Syn.final in
         let die, len, crossings = Physical.Physical_design.quality design in
         Format.printf "@.%a@." Physical.Physical_design.pp design;
         Format.printf "physical quality: die %d, channel length %d, crossings %d@."
           die len crossings
       end;
       (match dot with
        | Some path ->
          write_file path (Export.Dot.schedule r.Syn.final);
          Format.printf "wrote %s@." path
        | None -> ());
       (match csv with
        | Some path ->
          write_file path (Export.Csv.schedule r.Syn.final);
          Format.printf "wrote %s@." path
        | None -> ());
       (match Cohls.Schedule.validate r.Syn.final with
        | Ok () -> Format.printf "schedule validates: OK@."; Ok ()
        | Error e -> Error (`Msg ("internal: schedule invalid: " ^ e)))
     in
     catch_no_device ~devices (fun () -> with_trace trace run))

let synth_cmd =
  let info = Cmd.info "synth" ~doc:"Synthesise a hybrid schedule for a bioassay." in
  Cmd.v info
    Term.(
      ret
        (const synth $ case_arg $ file_arg $ rule_arg $ threshold_arg $ devices_arg
         $ iterations_arg $ ilp_arg $ ilp_seconds_arg
         $ schedule_arg $ gantt_arg $ control_arg $ physical_arg $ dot_arg
         $ csv_arg $ trace_arg))

(* ---------- fault-injection options (stats, simulate) ---------- *)

let fault_seed_arg =
  let doc = "Fault-plan seed (deterministic per (seed, device, layer))." in
  Arg.(value & opt int 1 & info [ "faults" ] ~docv:"SEED" ~doc)

let fault_rate_arg =
  let doc = "Per-(device, layer-boundary) fault probability in [0, 1]." in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)

let allow_new_devices_arg =
  let doc =
    "Let recovery integrate fresh devices (beyond re-binding the surviving \
     chip) up to the device cap."
  in
  Arg.(value & flag & info [ "allow-new-devices" ] ~doc)

let fault_plan ~fault_seed ~fault_rate =
  if not (fault_rate >= 0.0 && fault_rate <= 1.0) then
    Error (`Msg "fault rate must be in [0, 1]")
  else Ok (Cohls.Faults.seeded ~seed:fault_seed ~rate:fault_rate)

(* ---------- stats ---------- *)

let stats_json_arg =
  let doc = "Write the solver-statistics report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let stats case file rule threshold devices iterations ilp ilp_seconds
    json trace fault_seed fault_rate =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of ~case ~file in
     let* plan = fault_plan ~fault_seed ~fault_rate in
     let config =
       config_of ~rule ~threshold ~devices ~iterations ~ilp ~ilp_seconds
     in
     catch_no_device ~devices (fun () ->
       let ( let* ) = Result.bind in
       Telemetry.enable ();
       Telemetry.reset ();
       let r = Syn.run ~config assay in
       (* with --fault-rate > 0 also exercise the fault-tolerant executor so
          the faults.* / recovery.* counters appear in the report *)
       let* () =
         if fault_rate > 0.0 then begin
           let oracle = Cohls.Runtime.seeded_oracle ~seed:1 ~max_extra:20 assay in
           match Cohls.Recovery.execute ~config ~plan ~oracle r.Syn.final with
           | Ok _ -> Ok ()
           | Error e ->
             Format.printf "%a@." Cohls.Recovery.pp_error e;
             Ok ()
         end
         else Ok ()
       in
       (match trace with
        | Some path ->
          write_file path (Telemetry.Export.chrome_trace ());
          Format.printf "wrote %s@." path
        | None -> ());
       Format.printf "%a@.@." Cohls.Report.schedule_summary r;
       print_string (Telemetry.Export.stats_table ());
       (match json with
        | Some path ->
          let meta =
            [
              ("tool", Telemetry.Json.String "cohls stats");
              ("case", Telemetry.Json.String case);
              ( "rule",
                Telemetry.Json.String (Cohls.Binding.rule_name config.Syn.rule) );
            ]
          in
          write_file path (Telemetry.Export.stats_json ~meta ());
          Format.printf "wrote %s@." path
        | None -> ());
       Telemetry.disable ();
       Ok ()))

let stats_cmd =
  let info =
    Cmd.info "stats"
      ~doc:
        "Synthesise with the telemetry collector enabled and report solver \
         counters (simplex pivots, branch-and-bound nodes, layering \
         evictions, re-synthesis passes, fault injection and recovery) as a \
         table or JSON."
  in
  Cmd.v info
    Term.(
      ret
        (const stats $ case_arg $ file_arg $ rule_arg $ threshold_arg $ devices_arg
         $ iterations_arg $ ilp_arg $ ilp_seconds_arg
         $ stats_json_arg $ trace_arg $ fault_seed_arg $ fault_rate_arg))

(* ---------- layering ---------- *)

let layering case threshold =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of_case case in
     let l = Cohls.Layering.compute ~threshold assay in
     let ops = Microfluidics.Assay.operations assay in
     Format.printf "%a@." Cohls.Layering.pp l;
     Array.iter
       (fun (layer : Cohls.Layering.layer) ->
         Format.printf "  L%d: %s@." layer.Cohls.Layering.index
           (String.concat ", "
              (List.map
                 (fun v ->
                   Printf.sprintf "%d:%s" v ops.(v).Microfluidics.Operation.name)
                 layer.Cohls.Layering.ops)))
       l.Cohls.Layering.layers;
     match Cohls.Layering.check l with
     | Ok () -> Format.printf "layering invariants: OK@."; Ok ()
     | Error e -> Error (`Msg e))

let layering_cmd =
  let info = Cmd.info "layering" ~doc:"Show the hybrid-scheduling layers of a bioassay." in
  Cmd.v info Term.(ret (const layering $ case_arg $ threshold_arg))

(* ---------- execute ---------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Oracle seed.")

let max_extra_arg =
  let minutes = checked Arg.int ~what:"an integer >= 0" (fun n -> n >= 0) in
  Arg.(value & opt minutes 20 & info [ "max-extra" ]
       ~doc:"Maximum extra minutes an indeterminate operation may take, at least 0.")

let execute case seed max_extra =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of_case case in
     catch_no_device ~devices:Syn.default_config.Syn.max_devices (fun () ->
       let r = Syn.run assay in
       let oracle = Cohls.Runtime.seeded_oracle ~seed ~max_extra assay in
       match Cohls.Runtime.execute r.Syn.final oracle with
       | Ok trace ->
         Format.printf "fixed part: %dm, realised total: %dm@."
           (Cohls.Schedule.total_fixed_minutes r.Syn.final)
           trace.Cohls.Runtime.total_minutes;
         List.iter
           (fun (layer, wait) -> Format.printf "  layer %d waited %dm for indeterminate ops@." layer wait)
           trace.Cohls.Runtime.waits;
         Ok ()
       | Error e -> Error (`Msg e)))

let execute_cmd =
  let info = Cmd.info "execute" ~doc:"Replay a hybrid schedule under an indeterminacy oracle." in
  Cmd.v info Term.(ret (const execute $ case_arg $ seed_arg $ max_extra_arg))

(* ---------- simulate ---------- *)

let print_outcome ~baseline (o : Cohls.Recovery.outcome) =
  let s = o.Cohls.Recovery.stats in
  Format.printf
    "faults: %d injected, %d transient retries paid, %d escalated@."
    s.Cohls.Runtime.faults_injected s.Cohls.Runtime.transient_retries
    s.Cohls.Runtime.transients_escalated;
  List.iteri
    (fun i (a : Cohls.Recovery.attempt) ->
      Format.printf
        "recovery %d: boundary %d, device %d dead%s; re-synthesised %d ops into \
         %d layers on %d survivors (+%d fresh) in %.3fs@."
        (i + 1) a.Cohls.Recovery.at_global_layer a.Cohls.Recovery.dead_device
        (if a.Cohls.Recovery.escalated then " (escalated transient)" else "")
        a.Cohls.Recovery.suffix_ops a.Cohls.Recovery.resynth_layers
        a.Cohls.Recovery.surviving_devices a.Cohls.Recovery.fresh_devices
        a.Cohls.Recovery.resynth_seconds)
    o.Cohls.Recovery.attempts;
  let total = o.Cohls.Recovery.trace.Cohls.Runtime.total_minutes in
  Format.printf "realised total: %dm (fault-free %dm, overhead %+.1f%%)@." total
    baseline
    (100.0 *. float_of_int (total - baseline) /. float_of_int (max 1 baseline));
  List.iteri
    (fun i s ->
      match Cohls.Schedule.validate s with
      | Ok () -> Format.printf "recovered schedule %d validates: OK@." (i + 1)
      | Error e -> Format.printf "recovered schedule %d INVALID: %s@." (i + 1) e)
    o.Cohls.Recovery.recovered_schedules

let simulate case file rule threshold devices iterations ilp ilp_seconds
    seed max_extra fault_seed fault_rate allow_new_devices
    show_stats =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of ~case ~file in
     let* plan = fault_plan ~fault_seed ~fault_rate in
     let config =
       config_of ~rule ~threshold ~devices ~iterations ~ilp ~ilp_seconds
     in
     catch_no_device ~devices (fun () ->
       if show_stats then begin
         Telemetry.enable ();
         Telemetry.reset ()
       end;
       let r = Syn.run ~config assay in
       let oracle = Cohls.Runtime.seeded_oracle ~seed ~max_extra assay in
       let baseline =
         match Cohls.Runtime.execute r.Syn.final oracle with
         | Ok t -> t.Cohls.Runtime.total_minutes
         | Error e -> failwith ("fault-free replay failed: " ^ e)
       in
       Format.printf "%s: %d layers, fixed part %dm, fault-free realised %dm@."
         (Microfluidics.Assay.name assay)
         (Array.length r.Syn.final.Cohls.Schedule.layers)
         (Cohls.Schedule.total_fixed_minutes r.Syn.final)
         baseline;
       Format.printf "plan: %s@." (Cohls.Faults.describe plan);
       let result =
         match
           Cohls.Recovery.execute ~config ~allow_new_devices ~plan ~oracle
             r.Syn.final
         with
         | Ok outcome ->
           print_outcome ~baseline outcome;
           let invalid =
             List.exists
               (fun s -> Result.is_error (Cohls.Schedule.validate s))
               outcome.Cohls.Recovery.recovered_schedules
           in
           if invalid then Error (`Msg "a recovered schedule failed validation")
           else Ok ()
         | Error e -> Error (`Msg (Format.asprintf "%a" Cohls.Recovery.pp_error e))
       in
       if show_stats then begin
         Format.printf "@.";
         print_string (Telemetry.Export.stats_table ());
         Telemetry.disable ()
       end;
       result))

let sim_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Indeterminacy-oracle seed.")

let sim_rate_arg =
  let doc = "Per-(device, layer-boundary) fault probability in [0, 1]." in
  Arg.(value & opt float 0.1 & info [ "fault-rate" ] ~docv:"P" ~doc)

let sim_stats_arg =
  let doc = "Print the telemetry counter table (fault/recovery counters) after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let simulate_cmd =
  let info =
    Cmd.info "simulate"
      ~doc:
        "Execute a hybrid schedule under seeded device-fault injection: \
         transient faults are retried with capped backoff at the layer \
         boundary; a permanent fault triggers layer-boundary recovery, \
         re-synthesising the unexecuted suffix on the surviving devices."
  in
  Cmd.v info
    Term.(
      ret
        (const simulate $ case_arg $ file_arg $ rule_arg $ threshold_arg
         $ devices_arg $ iterations_arg $ ilp_arg $ ilp_seconds_arg
         $ sim_seed_arg $ max_extra_arg $ fault_seed_arg
         $ sim_rate_arg $ allow_new_devices_arg $ sim_stats_arg))

(* ---------- compare ---------- *)

let compare_run case threshold devices =
  handle_result
    (let ( let* ) = Result.bind in
     let* assay = assay_of_case case in
     let base = { Syn.default_config with Syn.threshold; max_devices = devices } in
     catch_no_device ~devices (fun () ->
     let ours = Syn.run ~config:base assay in
     let conv = Cohls.Baseline.run ~config:base assay in
     let row =
       {
         Cohls.Report.testcase = case;
         op_count = Microfluidics.Assay.operation_count assay;
         indeterminate_count = Microfluidics.Assay.indeterminate_count assay;
         conventional = conv;
         ours;
       }
     in
     Cohls.Report.table2 Format.std_formatter [ row ];
     Format.printf "@.";
     Cohls.Report.table3 Format.std_formatter [ (case, ours) ];
     Format.printf "@.";
     Ok ()))

let compare_cmd =
  let info = Cmd.info "compare" ~doc:"Compare our method against the conventional baseline (Table 2/3 style)." in
  Cmd.v info Term.(ret (const compare_run $ case_arg $ threshold_arg $ devices_arg))

let main_cmd =
  let doc = "Component-oriented high-level synthesis for continuous-flow microfluidics (DAC'17 reproduction)." in
  let info = Cmd.info "cohls" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ synth_cmd; stats_cmd; layering_cmd; execute_cmd; simulate_cmd; compare_cmd ]

let () = exit (Cmd.eval main_cmd)
