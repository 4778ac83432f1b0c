(* Adversarial tests for the schedule validator: start from a known-valid
   synthesis result, corrupt it in every way the paper's constraints forbid,
   and check the validator rejects each corruption with a sensible message.
   This is what makes the "greedy/ILP schedules validate" properties
   meaningful. *)

open Microfluidics
module S = Cohls.Schedule

let check = Alcotest.check
let bool = Alcotest.bool

(* A small two-layer fixture: one indeterminate op gating a chain. *)
let fixture =
  lazy
    (let a = Assay.create ~name:"fixture" in
     let capture =
       Assay.add_operation a
         ~accessories:[ Components.Accessory.Cell_trap ]
         ~duration:(Operation.Indeterminate { min_minutes = 6 })
         "capture"
     in
     let lyse = Assay.add_operation a ~duration:(Operation.Fixed 10) "lyse" in
     let mix =
       Assay.add_operation a ~container:Components.Container.Ring
         ~accessories:[ Components.Accessory.Pump ] ~duration:(Operation.Fixed 20) "mix"
     in
     let detect =
       Assay.add_operation a
         ~accessories:[ Components.Accessory.Optical_system ]
         ~duration:(Operation.Fixed 5) "detect"
     in
     Assay.add_dependency a ~parent:capture ~child:lyse;
     Assay.add_dependency a ~parent:lyse ~child:mix;
     Assay.add_dependency a ~parent:mix ~child:detect;
     let r = Cohls.Synthesis.run a in
     (a, r.Cohls.Synthesis.final))

let valid () =
  let _, s = Lazy.force fixture in
  match S.validate s with
  | Ok () -> s
  | Error e -> Alcotest.failf "fixture invalid: %s" e

(* Rebuild a schedule with mutated layers (chip and metadata unchanged). *)
let with_layers (s : S.t) layers = { s with S.layers }

let map_entries f (s : S.t) =
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        { l with S.entries = List.map (f l.S.layer_index) l.S.entries })
      s.S.layers
  in
  with_layers s layers

let expect_invalid name mutated =
  match S.validate mutated with
  | Ok () -> Alcotest.failf "%s: corruption not detected" name
  | Error msg -> check bool (name ^ " mentions something") true (String.length msg > 0)

let test_fixture_is_valid () = ignore (valid ())

let test_missing_entry () =
  let s = valid () in
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        { l with S.entries = List.filter (fun e -> e.S.op <> 3) l.S.entries })
      s.S.layers
  in
  expect_invalid "missing op" (with_layers s layers)

let test_duplicate_entry () =
  let s = valid () in
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        match l.S.entries with
        | e :: _ when l.S.layer_index = 1 -> { l with S.entries = e :: l.S.entries }
        | _ -> l)
      s.S.layers
  in
  expect_invalid "duplicate op" (with_layers s layers)

let test_negative_start () =
  let s = valid () in
  expect_invalid "negative start"
    (map_entries (fun _ e -> if e.S.op = 1 then { e with S.start = -1 } else e) s)

let test_dependency_violation () =
  let s = valid () in
  (* mix (op 2) depends on lyse (op 1): force mix to start at lyse's start *)
  let lyse_start =
    match S.entry_of_op s 1 with Some e -> e.S.start | None -> Alcotest.fail "no lyse"
  in
  expect_invalid "dependency"
    (map_entries (fun _ e -> if e.S.op = 2 then { e with S.start = lyse_start } else e) s)

let test_device_conflict () =
  let s = valid () in
  (* put detect on lyse's device at lyse's start *)
  let lyse =
    match S.entry_of_op s 1 with Some e -> e | None -> Alcotest.fail "no lyse"
  in
  expect_invalid "device overlap"
    (map_entries
       (fun _ e ->
         if e.S.op = 3 then { e with S.device = lyse.S.device; start = lyse.S.start }
         else e)
       s)

let test_unknown_device () =
  let s = valid () in
  expect_invalid "unknown device"
    (map_entries (fun _ e -> if e.S.op = 2 then { e with S.device = 99 } else e) s)

let test_incompatible_device () =
  let s = valid () in
  (* the mix op (needs ring+pump) moved onto the capture chamber *)
  let capture =
    match S.entry_of_op s 0 with Some e -> e | None -> Alcotest.fail "no capture"
  in
  expect_invalid "incompatible binding"
    (map_entries (fun _ e -> if e.S.op = 2 then { e with S.device = capture.S.device } else e) s)

let test_wrong_duration () =
  let s = valid () in
  expect_invalid "wrong duration"
    (map_entries (fun _ e -> if e.S.op = 1 then { e with S.min_duration = 1 } else e) s)

let test_wrong_indet_flag () =
  let s = valid () in
  expect_invalid "wrong indeterminate flag"
    (map_entries (fun _ e -> if e.S.op = 0 then { e with S.indeterminate = false } else e) s)

let test_wrong_makespan () =
  let s = valid () in
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        if l.S.layer_index = 1 then { l with S.fixed_makespan = l.S.fixed_makespan + 7 }
        else l)
      s.S.layers
  in
  expect_invalid "wrong makespan" (with_layers s layers)

let test_entry_in_wrong_layer () =
  let s = valid () in
  (* move the capture entry from layer 0 into layer 1 *)
  let capture =
    match S.entry_of_op s 0 with Some e -> e | None -> Alcotest.fail "no capture"
  in
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        if l.S.layer_index = 0 then
          { l with S.entries = List.filter (fun e -> e.S.op <> 0) l.S.entries }
        else { l with S.entries = capture :: l.S.entries })
      s.S.layers
  in
  expect_invalid "wrong layer" (with_layers s layers)

let test_missing_path () =
  let s = valid () in
  (* rebuild the chip without any transportation paths: every inter-device
     transfer must then be flagged *)
  let chip = Chip.create () in
  List.iter (fun d -> Chip.add_device chip d) (Chip.devices s.S.chip);
  let has_cross_transfer =
    let bindings =
      List.filter_map (fun op -> S.binding s op) [ 0; 1; 2; 3 ]
    in
    List.length (List.sort_uniq compare bindings) > 1
  in
  if has_cross_transfer then
    expect_invalid "missing path" { s with S.chip }

let test_det_op_after_indet_on_device () =
  let s = valid () in
  (* schedule a determinate op on the capture device after the capture
     started: must be rejected even if (14) holds *)
  let capture =
    match S.entry_of_op s 0 with Some e -> e | None -> Alcotest.fail "no capture"
  in
  let layers =
    Array.map
      (fun (l : S.layer_schedule) ->
        if l.S.layer_index = 0 then
          {
            l with
            S.entries =
              l.S.entries
              @ [
                  {
                    S.op = 1;
                    device = capture.S.device;
                    start = capture.S.start + 1;
                    min_duration = 10;
                    transport = 0;
                    indeterminate = false;
                  };
                ];
          }
        else { l with S.entries = List.filter (fun e -> e.S.op <> 1) l.S.entries })
      s.S.layers
  in
  expect_invalid "det op after indet start" (with_layers s layers)

let () =
  Alcotest.run "validator"
    [
      ( "mutations",
        [
          Alcotest.test_case "fixture valid" `Quick test_fixture_is_valid;
          Alcotest.test_case "missing entry" `Quick test_missing_entry;
          Alcotest.test_case "duplicate entry" `Quick test_duplicate_entry;
          Alcotest.test_case "negative start" `Quick test_negative_start;
          Alcotest.test_case "dependency violation" `Quick test_dependency_violation;
          Alcotest.test_case "device conflict" `Quick test_device_conflict;
          Alcotest.test_case "unknown device" `Quick test_unknown_device;
          Alcotest.test_case "incompatible device" `Quick test_incompatible_device;
          Alcotest.test_case "wrong duration" `Quick test_wrong_duration;
          Alcotest.test_case "wrong indeterminate flag" `Quick test_wrong_indet_flag;
          Alcotest.test_case "wrong makespan" `Quick test_wrong_makespan;
          Alcotest.test_case "entry in wrong layer" `Quick test_entry_in_wrong_layer;
          Alcotest.test_case "missing path" `Quick test_missing_path;
          Alcotest.test_case "det op after indet" `Quick test_det_op_after_indet_on_device;
        ] );
    ]
