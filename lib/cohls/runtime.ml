open Microfluidics

type oracle = int -> int

let deterministic_oracle ~extra assay =
  let ops = Assay.operations assay in
  fun op -> Operation.min_duration ops.(op) + extra

let seeded_oracle ~seed ~max_extra assay =
  let ops = Assay.operations assay in
  fun op ->
    (* splitmix-style hash of (seed, op): reproducible, no global state *)
    let h = ref (seed * 0x9E3779B1 + (op * 0x85EBCA77)) in
    h := !h lxor (!h lsr 13);
    h := !h * 0xC2B2AE35;
    h := !h lxor (!h lsr 16);
    let extra = if max_extra <= 0 then 0 else abs !h mod (max_extra + 1) in
    Operation.min_duration ops.(op) + extra

let retry_oracle ?(max_attempts = 50) ~seed ~success_probability ~attempt_minutes assay =
  if not (success_probability > 0.0 && success_probability <= 1.0) then
    invalid_arg "Runtime.retry_oracle: success_probability must be in (0, 1]";
  if attempt_minutes <= 0 then
    invalid_arg "Runtime.retry_oracle: attempt_minutes must be positive";
  if max_attempts < 1 then
    invalid_arg "Runtime.retry_oracle: max_attempts must be at least 1";
  let ops = Assay.operations assay in
  fun op ->
    (* one hash per (seed, op, attempt); attempt succeeds when the hashed
       uniform value falls below the success probability *)
    let uniform attempt =
      let h = ref (seed * 0x9E3779B1 + (op * 0x85EBCA77) + (attempt * 0xC2B2AE3D)) in
      h := !h lxor (!h lsr 13);
      h := !h * 0x27D4EB2F;
      h := !h lxor (!h lsr 15);
      float_of_int (abs !h mod 1_000_000) /. 1_000_000.0
    in
    let rec attempts k =
      if k >= max_attempts then begin
        (* truncating the geometric tail biases the duration statistics
           downward, so leave a visible signal *)
        Telemetry.count "runtime.retry_oracle.capped";
        max_attempts
      end
      else if uniform k < success_probability then k + 1
      else attempts (k + 1)
    in
    let n = attempts 0 in
    Telemetry.count "runtime.retry_oracle.calls";
    if n > 1 then begin
      (* the oracle had to intervene: at least one attempt failed and the
         operation was retried at the layer boundary *)
      Telemetry.count "runtime.retry_oracle.interventions";
      Telemetry.count ~by:(n - 1) "runtime.retry_oracle.retries"
    end;
    Stdlib.max (Operation.min_duration ops.(op)) (n * attempt_minutes)

type event = {
  time : int;
  op : int;
  device : int;
  kind : [ `Start | `Finish ];
}

type trace = {
  events : event list;
  layer_boundaries : (int * int) list;
  total_minutes : int;
  waits : (int * int) list;
}

type fault_stats = {
  faults_injected : int;
  transient_retries : int;
  transients_escalated : int;
}

type fault_outcome =
  | Completed of { trace : trace; stats : fault_stats }
  | Faulted of {
      partial : trace;
      failed_layer : int;
      global_layer : int;
      device : int;
      escalated : bool;
      stats : fault_stats;
    }

let sort_events events =
  List.sort
    (fun a b -> compare (a.time, a.op, a.kind) (b.time, b.op, b.kind))
    events

(* Retries paid per transient fault before it escalates to permanent. *)
let max_transient_retries = 3

(* Backoff before the k-th retry (1-based), in simulated minutes: doubling
   from 2, capped at 16x so a deep transient cannot dominate the
   makespan. *)
let backoff_delay k = 2 * (1 lsl (min 4 (k - 1)))

let execute_under_faults ?(start_clock = 0) ?(first_global_layer = 0) ~plan
    (s : Schedule.t) oracle =
  let ops = Assay.operations s.Schedule.assay in
  let exception Bad of string in
  let exception
    Dead of { failed_layer : int; global_layer : int; device : int; escalated : bool }
  in
  let injected = ref 0 in
  let retries = ref 0 in
  let escalations = ref 0 in
  let stats () =
    {
      faults_injected = !injected;
      transient_retries = !retries;
      transients_escalated = !escalations;
    }
  in
  let clock = ref start_clock in
  let events = ref [] in
  let boundaries = ref [] in
  let waits = ref [] in
  (* The boundary check the cyber-physical controller performs before
     committing a layer: probe every device the layer binds, pay retry
     backoff for transients that clear within the cap, abort on a permanent
     fault (or a transient that outlives the cap). Returns the minutes the
     boundary consumed. *)
  let boundary_check (l : Schedule.layer_schedule) =
    let global_layer = first_global_layer + l.Schedule.layer_index in
    let devices =
      List.sort_uniq compare
        (List.map (fun (e : Schedule.entry) -> e.Schedule.device) l.Schedule.entries)
    in
    let probes =
      List.filter_map
        (fun d ->
          match Faults.probe plan ~device:d ~layer:global_layer with
          | Some kind -> Some (d, kind)
          | None -> None)
        devices
    in
    List.iter (fun _ -> incr injected; Telemetry.count "faults.injected") probes;
    (* a permanent fault (or an escalating transient) aborts the layer
       before any retries are paid: the controller re-plans instead *)
    (match
       List.find_opt
         (fun (_, kind) ->
           match kind with
           | Faults.Permanent -> true
           | Faults.Transient { retries_needed } ->
             retries_needed > max_transient_retries)
         probes
     with
     | Some (device, kind) ->
       let escalated =
         match kind with
         | Faults.Permanent ->
           Telemetry.count "faults.permanent";
           false
         | Faults.Transient _ ->
           incr escalations;
           Telemetry.count "faults.transient.escalated";
           true
       in
       raise
         (Dead { failed_layer = l.Schedule.layer_index; global_layer; device; escalated })
     | None -> ());
    List.fold_left
      (fun delay (_, kind) ->
        match kind with
        | Faults.Permanent -> assert false
        | Faults.Transient { retries_needed } ->
          Telemetry.count "faults.transient";
          retries := !retries + retries_needed;
          Telemetry.observe "faults.retry_attempts" (float_of_int retries_needed);
          let d = ref 0 in
          for k = 1 to retries_needed do
            d := !d + backoff_delay k
          done;
          Telemetry.observe "faults.retry_backoff_minutes" (float_of_int !d);
          delay + !d)
      0 probes
  in
  let run_layer (l : Schedule.layer_schedule) =
    let delay = boundary_check l in
    clock := !clock + delay;
    let layer_start = !clock in
    let layer_end = ref (layer_start + l.Schedule.fixed_makespan) in
    List.iter
      (fun (e : Schedule.entry) ->
        let start = layer_start + e.Schedule.start in
        let duration =
          if e.Schedule.indeterminate then begin
            let d = oracle e.Schedule.op in
            if d < Operation.min_duration ops.(e.Schedule.op) then
              raise
                (Bad
                   (Printf.sprintf "oracle returned %d < minimum %d for op %d" d
                      (Operation.min_duration ops.(e.Schedule.op))
                      e.Schedule.op));
            d
          end
          else e.Schedule.min_duration
        in
        let finish = start + duration + e.Schedule.transport in
        events :=
          { time = start; op = e.Schedule.op; device = e.Schedule.device; kind = `Start }
          :: { time = finish; op = e.Schedule.op; device = e.Schedule.device; kind = `Finish }
          :: !events;
        if finish > !layer_end then layer_end := finish)
      l.Schedule.entries;
    let fixed_end = layer_start + l.Schedule.fixed_makespan in
    let wait = !layer_end - fixed_end in
    if wait > 0 then Telemetry.count "runtime.layer_interventions";
    Telemetry.observe "runtime.layer_wait_minutes" (float_of_int wait);
    waits := (l.Schedule.layer_index, wait) :: !waits;
    boundaries := (l.Schedule.layer_index, !layer_end) :: !boundaries;
    clock := !layer_end
  in
  let current_trace () =
    {
      events = sort_events !events;
      layer_boundaries = List.rev !boundaries;
      total_minutes = !clock;
      waits = List.rev !waits;
    }
  in
  try
    Array.iter run_layer s.Schedule.layers;
    Ok (Completed { trace = current_trace (); stats = stats () })
  with
  | Bad msg -> Error msg
  | Dead { failed_layer; global_layer; device; escalated } ->
    Ok
      (Faulted
         {
           partial = current_trace ();
           failed_layer;
           global_layer;
           device;
           escalated;
           stats = stats ();
         })

let execute (s : Schedule.t) oracle =
  match execute_under_faults ~plan:Faults.none s oracle with
  | Ok (Completed { trace; _ }) -> Ok trace
  | Ok (Faulted _) -> assert false (* Faults.none never probes positive *)
  | Error msg -> Error msg
