open Microfluidics

type reason =
  | No_feasible_binding of { op : int }
  | Invalid_schedule of string
  | Execution_error of string
  | Too_many_faults of { attempts : int }

type error = {
  at_global_layer : int;
  dead_devices : int list;
  failure : reason;
}

type attempt = {
  at_global_layer : int;
  dead_device : int;
  escalated : bool;
  suffix_ops : int;
  resynth_layers : int;
  surviving_devices : int;
  fresh_devices : int;
  resynth_seconds : float;
}

type outcome = {
  trace : Runtime.trace;
  attempts : attempt list;
  recovered_schedules : Schedule.t list;
  stats : Runtime.fault_stats;
}

let add_stats (a : Runtime.fault_stats) (b : Runtime.fault_stats) =
  {
    Runtime.faults_injected = a.Runtime.faults_injected + b.Runtime.faults_injected;
    transient_retries = a.Runtime.transient_retries + b.Runtime.transient_retries;
    transients_escalated =
      a.Runtime.transients_escalated + b.Runtime.transients_escalated;
  }

let zero_stats =
  { Runtime.faults_injected = 0; transient_retries = 0; transients_escalated = 0 }

(* Rewrite a segment trace into global terms: operation ids back to the
   original assay's, layer indices to global execution steps. *)
let remap_segment ~to_orig ~global0 (t : Runtime.trace) =
  {
    Runtime.events =
      List.map
        (fun (e : Runtime.event) -> { e with Runtime.op = to_orig e.Runtime.op })
        t.Runtime.events;
    layer_boundaries = List.map (fun (l, at) -> (global0 + l, at)) t.Runtime.layer_boundaries;
    total_minutes = t.Runtime.total_minutes;
    waits = List.map (fun (l, w) -> (global0 + l, w)) t.Runtime.waits;
  }

let merge_segments segments =
  (* chronological segment list; clocks are absolute, so concatenation plus
     one global sort reproduces a single-run trace *)
  {
    Runtime.events =
      Runtime.sort_events
        (List.concat_map (fun (t : Runtime.trace) -> t.Runtime.events) segments);
    layer_boundaries =
      List.concat_map (fun (t : Runtime.trace) -> t.Runtime.layer_boundaries) segments;
    total_minutes =
      (match List.rev segments with
       | last :: _ -> last.Runtime.total_minutes
       | [] -> 0);
    waits = List.concat_map (fun (t : Runtime.trace) -> t.Runtime.waits) segments;
  }

(* The unexecuted suffix, derived as a fresh dense assay over the kept
   operations in ascending id order. Dependencies on executed operations are
   dropped — their reagents were already delivered — while intra-suffix
   dependencies survive: the induced subgraph, built in one pass. Returns
   the sub-assay and the sub-id -> parent-id mapping. *)
let suffix_assay assay keep =
  let orig_of_sub = Array.of_list keep in
  let sub_of_orig = Array.make (Assay.operation_count assay) (-1) in
  Array.iteri (fun i o -> sub_of_orig.(o) <- i) orig_of_sub;
  let edges =
    List.concat
      (List.mapi
         (fun child o ->
           List.filter_map
             (fun p ->
               let parent = sub_of_orig.(p) in
               if parent >= 0 then Some (parent, child) else None)
             (Assay.parents assay o))
         keep)
  in
  let sub =
    Assay.derive ~name:(Assay.name assay ^ "+recovery")
      (Array.map (Assay.operation assay) orig_of_sub)
      (Flowgraph.Digraph.of_edges (Array.length orig_of_sub) edges)
  in
  (sub, orig_of_sub)

(* Permanent faults recovered from before execution gives up. *)
let max_recoveries = 16

let execute ?(config = Synthesis.default_config) ?(allow_new_devices = false)
    ~plan ~oracle (schedule : Schedule.t) =
  let fail ~at ~dead failure =
    Telemetry.count "recovery.failed";
    Error { at_global_layer = at; dead_devices = List.rev dead; failure }
  in
  let rec loop ~(current : Schedule.t) ~to_orig ~clock ~global0 ~dead ~segments
      ~attempts ~recovered ~stats ~fresh_floor =
    let wrapped op = oracle (to_orig op) in
    match
      Runtime.execute_under_faults ~start_clock:clock ~first_global_layer:global0
        ~plan current wrapped
    with
    | Error msg -> fail ~at:global0 ~dead (Execution_error msg)
    | Ok (Runtime.Completed { trace; stats = seg_stats }) ->
      let segments = remap_segment ~to_orig ~global0 trace :: segments in
      Ok
        {
          trace = merge_segments (List.rev segments);
          attempts = List.rev attempts;
          recovered_schedules = List.rev recovered;
          stats = add_stats stats seg_stats;
        }
    | Ok
        (Runtime.Faulted
           { partial; failed_layer; global_layer; device; escalated; stats = seg_stats })
      ->
      let stats = add_stats stats seg_stats in
      let segments = remap_segment ~to_orig ~global0 partial :: segments in
      let dead = device :: dead in
      if List.length attempts >= max_recoveries then
        fail ~at:global_layer ~dead (Too_many_faults { attempts = List.length attempts })
      else begin
        Telemetry.count "recovery.invocations";
        (* everything from the faulted layer on is unexecuted *)
        let keep =
          let acc = ref [] in
          Array.iter
            (fun (l : Schedule.layer_schedule) ->
              if l.Schedule.layer_index >= failed_layer then
                List.iter
                  (fun (e : Schedule.entry) -> acc := e.Schedule.op :: !acc)
                  l.Schedule.entries)
            current.Schedule.layers;
          List.sort_uniq compare !acc
        in
        let sub, orig_of_sub = suffix_assay current.Schedule.assay keep in
        let to_orig' i = to_orig orig_of_sub.(i) in
        let survivors =
          List.filter
            (fun (d : Device.t) -> not (List.mem d.Device.id dead))
            (Chip.devices current.Schedule.chip)
        in
        let cfg =
          if allow_new_devices then config
          else { config with Synthesis.max_devices = List.length survivors }
        in
        (* fresh devices must not reuse a dead device's id: the fault plan
           is keyed by id, so a reused id would inherit the dead device's
           fault destiny (and look excluded from future survivor sets) *)
        let fresh_floor =
          List.fold_left
            (fun acc (d : Device.t) -> max acc (d.Device.id + 1))
            (List.fold_left (fun acc id -> max acc (id + 1)) fresh_floor dead)
            (Chip.devices current.Schedule.chip)
        in
        match
          Telemetry.span "recovery.resynthesis"
            ~attrs:[ ("global_layer", string_of_int global_layer) ] (fun () ->
              Synthesis.run_with_pool ~config:cfg ~first_fresh_id:fresh_floor
                ~pool:survivors sub)
        with
        | exception List_scheduler.No_device op ->
          fail ~at:global_layer ~dead (No_feasible_binding { op = to_orig' op })
        | r -> begin
          match Schedule.validate r.Synthesis.final with
          | Error e -> fail ~at:global_layer ~dead (Invalid_schedule e)
          | Ok () ->
            let resynth_layers = Array.length r.Synthesis.final.Schedule.layers in
            Telemetry.count ~by:resynth_layers "recovery.resynth_layers";
            Telemetry.observe "recovery.resynth_seconds" r.Synthesis.runtime_seconds;
            let fresh_devices =
              List.length
                (List.filter
                   (fun (d : Device.t) ->
                     not
                       (List.exists
                          (fun (s : Device.t) -> s.Device.id = d.Device.id)
                          survivors))
                   (Chip.devices r.Synthesis.final.Schedule.chip))
            in
            let attempt =
              {
                at_global_layer = global_layer;
                dead_device = device;
                escalated;
                suffix_ops = List.length keep;
                resynth_layers;
                surviving_devices = List.length survivors;
                fresh_devices;
                resynth_seconds = r.Synthesis.runtime_seconds;
              }
            in
            loop ~current:r.Synthesis.final ~to_orig:to_orig'
              ~clock:partial.Runtime.total_minutes ~global0:global_layer ~dead
              ~segments ~attempts:(attempt :: attempts)
              ~recovered:(r.Synthesis.final :: recovered) ~stats ~fresh_floor
        end
      end
  in
  loop ~current:schedule
    ~to_orig:(fun i -> i)
    ~clock:0 ~global0:0 ~dead:[] ~segments:[] ~attempts:[] ~recovered:[]
    ~stats:zero_stats ~fresh_floor:0

let pp_reason ppf = function
  | No_feasible_binding { op } ->
    Format.fprintf ppf "no surviving device can execute operation %d" op
  | Invalid_schedule e -> Format.fprintf ppf "re-synthesised schedule invalid: %s" e
  | Execution_error e -> Format.fprintf ppf "execution error: %s" e
  | Too_many_faults { attempts } ->
    Format.fprintf ppf "gave up after %d recoveries" attempts

let pp_error ppf (e : error) =
  Format.fprintf ppf "Recovery_failed at layer boundary %d (dead devices: %s): %a"
    e.at_global_layer
    (String.concat ", " (List.map string_of_int e.dead_devices))
    pp_reason e.failure
