(* Golden output of the heuristic engine: the final schedule and chip of a
   default synthesis run on every paper and extension case, case 2
   replicated four times and eight seeded random assays, under both
   binding rules. Dune diffs stdout against test_golden.expected; a
   change to any binding, start time, device or path shows up as a diff.
   Run [dune promote] only when a change of schedule is intended. *)

open Microfluidics
module Syn = Cohls.Synthesis

let cases =
  [
    ("case1", Assays.Kinase.testcase);
    ("case2", Assays.Gene_expression.testcase);
    ("case3", Assays.Rt_qpcr.testcase);
    ("mda", Assays.Mda.testcase);
    ("chip", Assays.Chip_assay.testcase);
    (* 280 ops: op-indexed arrays past 256 words are allocated straight in
       the major heap, which no paper case reaches *)
    ("case2x4", fun () -> Assay.replicate (Assays.Gene_expression.testcase ()) ~copies:4);
  ]
  @ List.init 8 (fun i ->
        let seed = i + 1 in
        ( Printf.sprintf "random:%d" seed,
          fun () -> Assays.Random_assay.generate ~seed Assays.Random_assay.default_params ))

let () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun rule ->
          let config = { Syn.default_config with Syn.rule } in
          let r = Syn.run ~config (make ()) in
          let s = r.Syn.final in
          Format.printf "=== %s %s@.%a@.%a@." name (Cohls.Binding.rule_name rule)
            Cohls.Schedule.pp s Chip.pp s.Cohls.Schedule.chip)
        [ Cohls.Binding.Component_oriented; Cohls.Binding.Exact_signature ])
    cases
