(** Hybrid-schedule execution (the cyber-physical side of the paper).

    A hybrid schedule fixes everything except the real durations of
    indeterminate operations. This executor replays a synthesis result as a
    discrete-event simulation: layers run back to back; inside a layer every
    operation keeps its scheduled offset; the layer ends when its fixed part
    is over {e and} every indeterminate operation has really finished, the
    actual durations being drawn from a pluggable oracle (a lab instrument,
    a human observer — here a function). This is the substitute for the
    paper's cyber-physical integration, exercising exactly the
    layer-boundary decision points the layering algorithm creates.

    The fault-aware entry point {!execute_under_faults} additionally probes
    a {!Faults.plan} at every layer boundary: transient device faults are
    retried with capped exponential backoff in simulated minutes; a
    permanent fault (or a transient outliving the retry cap) stops the run
    with the fully-executed prefix, so {!Recovery} can re-synthesise the
    unexecuted suffix on the surviving devices. *)

type oracle = int -> int
(** [oracle op] is the {e actual} duration of indeterminate operation [op];
    it must be at least the operation's minimum duration. *)

val deterministic_oracle : extra:int -> Microfluidics.Assay.t -> oracle
(** Every indeterminate operation takes [min + extra]. *)

val seeded_oracle : seed:int -> max_extra:int -> Microfluidics.Assay.t -> oracle
(** Pseudo-random extra in [0 .. max_extra], reproducible for a seed
    (deterministic per (seed, op)). *)

val retry_oracle :
  ?max_attempts:int ->
  seed:int ->
  success_probability:float ->
  attempt_minutes:int ->
  Microfluidics.Assay.t ->
  oracle
(** The paper's motivating indeterminacy model: a single-cell capture
    succeeds with fixed probability per attempt (~53% in reference [11]),
    the outcome is checked optically and failed captures rerun, so the
    duration is [attempts * attempt_minutes] with geometrically distributed
    attempts (deterministic per (seed, op); at least the operation's
    minimum duration).

    Attempts are capped at [max_attempts] (default [50]). The cap truncates
    the geometric tail and therefore {e biases the duration statistics
    downward}; every capped draw bumps the
    [runtime.retry_oracle.capped] telemetry counter so the bias is visible
    in [cohls stats] rather than silent.
    @raise Invalid_argument unless [0 < success_probability <= 1],
    [attempt_minutes > 0] and [max_attempts >= 1]. *)

type event = {
  time : int;  (** absolute assay time, minutes *)
  op : int;
  device : int;
  kind : [ `Start | `Finish ];
}

type trace = {
  events : event list;  (** ascending time *)
  layer_boundaries : (int * int) list;  (** (layer index, absolute end time) *)
  total_minutes : int;
  waits : (int * int) list;
      (** per layer: extra minutes spent past the fixed part waiting for
          indeterminate operations (the realised I_k of the paper) *)
}

val sort_events : event list -> event list
(** Events in trace order: by time, then operation, then kind. A single
    run's trace and a merged recovery trace both use it. *)

type fault_stats = {
  faults_injected : int;  (** positive probes seen, any kind *)
  transient_retries : int;  (** total retries paid for cleared transients *)
  transients_escalated : int;
      (** transients whose clearing depth exceeded the retry cap and were
          treated as permanent *)
}

type fault_outcome =
  | Completed of { trace : trace; stats : fault_stats }
      (** every layer executed (transient faults, if any, were retried
          through) *)
  | Faulted of {
      partial : trace;
          (** the fully-executed prefix: layers strictly before
              [failed_layer]; the failed layer ran nothing *)
      failed_layer : int;  (** index into the schedule's layer array *)
      global_layer : int;  (** [first_global_layer + failed_layer] *)
      device : int;  (** the dead device *)
      escalated : bool;  (** a transient that outlived the retry cap *)
      stats : fault_stats;
    }

val execute_under_faults :
  ?start_clock:int ->
  ?first_global_layer:int ->
  plan:Faults.plan ->
  Schedule.t ->
  oracle ->
  (fault_outcome, string) result
(** Execute under a fault plan. Before committing each layer the executor
    probes every device the layer binds at the {e global} layer index
    ([first_global_layer] + the layer's own index — recovery passes the
    offset so suffix schedules probe consistently). Cleared transients cost
    backoff minutes doubling from a constant 2 per retry (2, 4, 8, ...),
    capped at 16x; at most 3 retries (a constant) are paid per fault,
    beyond which the fault escalates to permanent. [start_clock] (default
    [0]) offsets all event times, so a recovered suffix continues the
    absolute timeline.

    [Error] only for a misbehaving oracle (returning less than an
    operation's minimum duration); injected faults never raise. *)

val execute : Schedule.t -> oracle -> (trace, string) result
(** [execute s oracle] is {!execute_under_faults} with {!Faults.none}:
    plain fault-free replay. Fails when the oracle returns less than an
    operation's minimum duration. *)
