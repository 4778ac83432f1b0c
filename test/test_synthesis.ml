(* End-to-end synthesis tests: the full flow on the paper's three test
   cases, the conventional baseline comparison (Table 2's qualitative
   claims), progressive re-synthesis (Table 3's shape) and the report
   renderers. *)

open Microfluidics
module Syn = Cohls.Synthesis

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int

let breakdown (r : Syn.result) = r.Syn.final_breakdown

(* memoise the expensive runs: the three cases, ours and conventional *)
let case1 = lazy (Assays.Kinase.testcase ())
let case2 = lazy (Assays.Gene_expression.testcase ())
let case3 = lazy (Assays.Rt_qpcr.testcase ())
let ours1 = lazy (Syn.run (Lazy.force case1))
let ours2 = lazy (Syn.run (Lazy.force case2))
let ours3 = lazy (Syn.run (Lazy.force case3))
let conv1 = lazy (Cohls.Baseline.run (Lazy.force case1))
let conv2 = lazy (Cohls.Baseline.run (Lazy.force case2))
let conv3 = lazy (Cohls.Baseline.run (Lazy.force case3))

let all_cases =
  [ ("case1", ours1, conv1); ("case2", ours2, conv2); ("case3", ours3, conv3) ]

let test_all_schedules_validate () =
  List.iter
    (fun (name, ours, conv) ->
      (match Cohls.Schedule.validate (Lazy.force ours).Syn.final with
       | Ok () -> ()
       | Error e -> Alcotest.fail (name ^ " ours: " ^ e));
      match Cohls.Schedule.validate (Lazy.force conv).Syn.final with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ " conv: " ^ e))
    all_cases

let test_table2_time_shape () =
  (* the paper's headline: our method beats the modified conventional
     method on execution time in every test case *)
  List.iter
    (fun (name, ours, conv) ->
      let o = (breakdown (Lazy.force ours)).Cohls.Schedule.fixed_minutes in
      let c = (breakdown (Lazy.force conv)).Cohls.Schedule.fixed_minutes in
      check bool (name ^ ": ours faster") true (o < c))
    all_cases

let test_table2_device_shape () =
  (* never more devices than the conventional method *)
  List.iter
    (fun (name, ours, conv) ->
      let o = (breakdown (Lazy.force ours)).Cohls.Schedule.devices in
      let c = (breakdown (Lazy.force conv)).Cohls.Schedule.devices in
      check bool (name ^ ": ours <= conv + 1 devices") true (o <= c + 1);
      check bool (name ^ ": within |D| = 25") true (o <= 25 && c <= 25))
    all_cases

let test_table2_path_shape () =
  (* fewer transportation paths (contribution III) *)
  List.iter
    (fun (name, ours, conv) ->
      let o = (breakdown (Lazy.force ours)).Cohls.Schedule.paths in
      let c = (breakdown (Lazy.force conv)).Cohls.Schedule.paths in
      check bool (name ^ ": ours fewer paths") true (o < c))
    all_cases

let test_case3_factor () =
  (* paper: case 3 time reduced to 81.7%; accept anything clearly below 95% *)
  let o = float_of_int (breakdown (Lazy.force ours3)).Cohls.Schedule.fixed_minutes in
  let c = float_of_int (breakdown (Lazy.force conv3)).Cohls.Schedule.fixed_minutes in
  check bool "substantial case-3 reduction" true (o /. c < 0.95)

let test_indeterminate_layer_suffixes () =
  (* case 1 has no +I terms, case 2 one, case 3 two *)
  let suffixes r =
    let s = Cohls.Report.exe_time_string r in
    List.length (String.split_on_char 'I' s) - 1
  in
  check int_t "case1 no I" 0 (suffixes (Lazy.force ours1));
  check int_t "case2 one I" 1 (suffixes (Lazy.force ours2));
  check int_t "case3 two I" 2 (suffixes (Lazy.force ours3))

let test_resynthesis_improves () =
  (* Table 3: the first re-synthesis iteration improves execution time
     substantially; the history is monotonically decreasing *)
  List.iter
    (fun (name, r) ->
      let r = Lazy.force r in
      let times =
        List.map
          (fun (it : Syn.iteration) -> it.Syn.breakdown.Cohls.Schedule.fixed_minutes)
          r.Syn.iterations
      in
      check bool (name ^ ": at least one improving iteration") true
        (List.length times >= 2);
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b && decreasing rest
        | [ _ ] | [] -> true
      in
      check bool (name ^ ": monotone") true (decreasing times);
      match Syn.improvement_history r with
      | (_, first) :: _ -> check bool (name ^ ": first gain >= 5%") true (first >= 0.05)
      | [] -> Alcotest.fail (name ^ ": empty history"))
    [ ("case2", ours2); ("case3", ours3) ]

let test_resynthesis_devices_stable () =
  (* Table 3 also reports #D constant across iterations (0% change);
     we allow small drift but no explosion *)
  List.iter
    (fun (name, r) ->
      let r = Lazy.force r in
      let devs =
        List.map
          (fun (it : Syn.iteration) -> it.Syn.breakdown.Cohls.Schedule.devices)
          r.Syn.iterations
      in
      let mn = List.fold_left min max_int devs and mx = List.fold_left max 0 devs in
      check bool (name ^ ": device count stable (+-2)") true (mx - mn <= 2))
    [ ("case2", ours2); ("case3", ours3) ]

let test_weighted_objective_never_degrades () =
  List.iter
    (fun (_, r, _) ->
      let r = Lazy.force r in
      let ws =
        List.map
          (fun (it : Syn.iteration) -> it.Syn.breakdown.Cohls.Schedule.weighted)
          r.Syn.iterations
      in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b && decreasing rest
        | [ _ ] | [] -> true
      in
      check bool "weighted objective strictly improves" true (decreasing ws))
    all_cases

let test_device_cap_respected () =
  (* case 2 needs 10 capture devices plus at least {s}, {h} and ring{p,h}
     devices: 14 is tight but feasible, 12 is impossible *)
  let cfg = { Syn.default_config with Syn.max_devices = 14 } in
  let r = Syn.run ~config:cfg (Lazy.force case2) in
  check bool "cap 14 respected" true ((breakdown r).Cohls.Schedule.devices <= 14);
  (match Cohls.Schedule.validate r.Syn.final with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let tiny = { Syn.default_config with Syn.max_devices = 12 } in
  try
    ignore (Syn.run ~config:tiny (Lazy.force case2));
    Alcotest.fail "expected No_device for cap 12"
  with Cohls.List_scheduler.No_device _ -> ()

let test_threshold_affects_layers () =
  let cfg = { Syn.default_config with Syn.threshold = 5 } in
  let r = Syn.run ~config:cfg (Lazy.force case2) in
  (* 10 indeterminate captures with threshold 5: at least 3 layers *)
  check bool "more layers" true (Array.length r.Syn.final.Cohls.Schedule.layers >= 3);
  match Cohls.Schedule.validate r.Syn.final with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_layout_refinement_mode () =
  let cfg = { Syn.default_config with Syn.refine_by_layout = true } in
  let r = Syn.run ~config:cfg (Lazy.force case1) in
  match Cohls.Schedule.validate r.Syn.final with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_invalid_assay_rejected () =
  let a = Assay.create ~name:"empty" in
  (try
     ignore (Syn.run a);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_baseline_forces_rule () =
  List.iter
    (fun config ->
      let r = Cohls.Baseline.run ~config (Lazy.force case1) in
      check bool "rule forced" true
        (r.Syn.config.Syn.rule = Cohls.Binding.Exact_signature);
      check int_t "paths weight zeroed" 0
        r.Syn.config.Syn.weights.Cohls.Schedule.w_paths)
    [ Syn.default_config; Cohls.Baseline.config Syn.default_config ]

(* ---------- report rendering ---------- *)

let test_exe_time_string () =
  let s1 = Cohls.Report.exe_time_string (Lazy.force ours1) in
  check bool "case1 plain minutes" true
    (String.length s1 > 0 && not (String.contains s1 'I'));
  let s3 = Cohls.Report.exe_time_string (Lazy.force ours3) in
  check bool "case3 carries +I1+I2" true
    (let has sub =
       let n = String.length s3 and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s3 i m = sub || go (i + 1)) in
       go 0
     in
     has "+I1" && has "+I2")

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_table2_renders () =
  let rows =
    [
      {
        Cohls.Report.testcase = "1 [10]";
        op_count = 16;
        indeterminate_count = 0;
        conventional = Lazy.force conv1;
        ours = Lazy.force ours1;
      };
    ]
  in
  let s = render (fun fmt -> Cohls.Report.table2 fmt rows) in
  check bool "mentions the testcase" true (String.length s > 100);
  check bool "has Conv. row" true
    (let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "Conv." && has "Our" && has "Table 2")

let test_table3_renders () =
  let s =
    render (fun fmt -> Cohls.Report.table3 fmt [ ("2 [7]", Lazy.force ours2) ])
  in
  check bool "has header and rows" true
    (let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "Table 3" && has "Exe.Time" && has "#D." && has "%")

let test_summary_renders () =
  let s = render (fun fmt -> Cohls.Report.schedule_summary fmt (Lazy.force ours1)) in
  check bool "mentions devices" true
    (let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "devices" && has "component-oriented")


(* ---------- the pass's chip ---------- *)

(* The chip a finished schedule implies, rebuilt after the fact: every
   bound device, then one transfer per dependency edge between distinct
   devices. Synthesis grows its chip layer by layer instead; this is the
   end-of-pass walk it replaced. *)
let rebuilt_chip (s : Cohls.Schedule.t) =
  let device_of_op = Hashtbl.create 32 in
  Array.iter
    (fun l ->
      List.iter
        (fun e -> Hashtbl.replace device_of_op e.Cohls.Schedule.op e.Cohls.Schedule.device)
        l.Cohls.Schedule.entries)
    s.Cohls.Schedule.layers;
  let bound = Hashtbl.fold (fun _ d acc -> d :: acc) device_of_op [] in
  let chip = Chip.create () in
  List.iter
    (fun (d : Device.t) -> if List.mem d.Device.id bound then Chip.add_device chip d)
    (Chip.devices s.Cohls.Schedule.chip);
  Flowgraph.Digraph.iter_edges
    (fun u v ->
      match (Hashtbl.find_opt device_of_op u, Hashtbl.find_opt device_of_op v) with
      | Some du, Some dv when du <> dv -> Chip.note_transport chip ~src:du ~dst:dv
      | Some _, Some _ | None, _ | _, None -> ())
    (Assay.dependency_graph s.Cohls.Schedule.assay);
  (List.sort_uniq compare bound, chip)

let prop_chip_matches_rebuild =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, exact, pooled) ->
        Printf.sprintf "seed=%d ops=%d exact=%b pool=%b" seed n exact pooled)
      QCheck.Gen.(quad (int_range 1 99999) (int_range 2 30) bool bool)
  in
  QCheck.Test.make ~name:"pass chip is the rebuilt chip" ~count:60 arb
    (fun (seed, n, exact, pooled) ->
      let params =
        { Assays.Random_assay.default_params with Assays.Random_assay.op_count = n }
      in
      let a = Assays.Random_assay.generate ~seed params in
      let rule =
        if exact then Cohls.Binding.Exact_signature else Cohls.Binding.Component_oriented
      in
      let config = { Syn.default_config with Syn.rule } in
      let run () =
        if not pooled then Syn.run ~config a
        else begin
          (* every other device of an earlier chip, some of which go unused *)
          let first = (Syn.run ~config a).Syn.final.Cohls.Schedule.chip in
          let pool = List.filteri (fun i _ -> i mod 2 = 0) (Chip.devices first) in
          Syn.run_with_pool ~config ~pool a
        end
      in
      match run () with
      | exception Cohls.List_scheduler.No_device _ -> QCheck.assume_fail ()
      | r ->
        List.for_all
          (fun (it : Syn.iteration) ->
            let s = it.Syn.schedule in
            let bound, rebuilt = rebuilt_chip s in
            let chip = s.Cohls.Schedule.chip in
            List.map (fun (d : Device.t) -> d.Device.id) (Chip.devices chip) = bound
            && Chip.path_usage chip = Chip.path_usage rebuilt)
          r.Syn.iterations)

let test_repeated_pool_id_rejected () =
  let a = Lazy.force case1 in
  let pool = Chip.devices (Lazy.force ours1).Syn.final.Cohls.Schedule.chip in
  match Syn.run_with_pool ~pool:(List.hd pool :: pool) a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a pool with a repeated device id was accepted"

let () =
  Alcotest.run "synthesis"
    [
      ( "table2-shape",
        [
          Alcotest.test_case "all schedules validate" `Slow test_all_schedules_validate;
          Alcotest.test_case "ours faster everywhere" `Slow test_table2_time_shape;
          Alcotest.test_case "device counts" `Slow test_table2_device_shape;
          Alcotest.test_case "fewer paths" `Slow test_table2_path_shape;
          Alcotest.test_case "case-3 factor" `Slow test_case3_factor;
          Alcotest.test_case "+I suffixes per case" `Slow test_indeterminate_layer_suffixes;
        ] );
      ( "table3-shape",
        [
          Alcotest.test_case "re-synthesis improves" `Slow test_resynthesis_improves;
          Alcotest.test_case "device counts stable" `Slow test_resynthesis_devices_stable;
          Alcotest.test_case "weighted objective monotone" `Slow
            test_weighted_objective_never_degrades;
        ] );
      ( "config",
        [
          Alcotest.test_case "device cap respected" `Slow test_device_cap_respected;
          Alcotest.test_case "threshold affects layers" `Slow test_threshold_affects_layers;
          Alcotest.test_case "layout refinement mode" `Slow test_layout_refinement_mode;
          Alcotest.test_case "invalid assay rejected" `Quick test_invalid_assay_rejected;
          Alcotest.test_case "baseline forces rule" `Slow test_baseline_forces_rule;
        ] );
      ( "report",
        [
          Alcotest.test_case "exe time string" `Slow test_exe_time_string;
          Alcotest.test_case "table 2 renders" `Slow test_table2_renders;
          Alcotest.test_case "table 3 renders" `Slow test_table3_renders;
          Alcotest.test_case "summary renders" `Slow test_summary_renders;
        ] );
      ( "pass-chip",
        [
          QCheck_alcotest.to_alcotest prop_chip_matches_rebuild;
          Alcotest.test_case "repeated pool id rejected" `Quick
            test_repeated_pool_id_rejected;
        ] );
    ]
