(** Layer-boundary recovery: re-synthesising the unexecuted suffix of a
    partially-executed assay on the surviving device set.

    The paper's hybrid schedules exist so a cyber-physical controller can
    intervene at layer boundaries without discarding the whole synthesis.
    This module is that intervention for {e device faults}: when
    {!Runtime.execute_under_faults} stops on a permanent fault, the
    already-executed prefix is kept (its reagents are delivered, its
    dependencies satisfied), the dead device is excluded, the surviving
    chip devices are offered back to {!Synthesis.run_with_pool} as a free
    pool, and only the unexecuted layers are re-synthesised and executed —
    repeatedly, since the recovered suffix can fault again. Re-synthesis
    runs the configured engine exactly as plain synthesis does.

    Every recovered schedule is checked with {!Schedule.validate} before it
    is executed; infeasibility is reported as a structured {!error} — the
    [Recovery_failed] outcome — never as an exception. *)

type reason =
  | No_feasible_binding of { op : int }
      (** no surviving (or permitted fresh) device can execute the
          operation ({e original} assay id) *)
  | Invalid_schedule of string
      (** re-synthesis produced a schedule rejected by
          {!Schedule.validate} *)
  | Execution_error of string  (** the oracle misbehaved during replay *)
  | Too_many_faults of { attempts : int }
      (** the recovery cap was hit (only reachable with
          [allow_new_devices], where the device set need not shrink) *)

type error = {
  at_global_layer : int;  (** boundary at which recovery gave up *)
  dead_devices : int list;  (** chronological *)
  failure : reason;
}
(** The structured [Recovery_failed] value. *)

type attempt = {
  at_global_layer : int;  (** boundary where the fault was detected *)
  dead_device : int;
  escalated : bool;  (** the fault was a transient that outlived the cap *)
  suffix_ops : int;  (** operations re-synthesised *)
  resynth_layers : int;  (** layers of the recovered suffix schedule *)
  surviving_devices : int;  (** pool offered to re-synthesis *)
  fresh_devices : int;  (** devices newly integrated by re-synthesis *)
  resynth_seconds : float;  (** recovery latency (wall clock) *)
}

type outcome = {
  trace : Runtime.trace;
      (** merged over all executed segments: event [op]s are original assay
          ids, boundary/wait layer indices are global execution steps, and
          [total_minutes] is the realised end-to-end makespan including
          transient backoff *)
  attempts : attempt list;  (** chronological; [[]] means no permanent fault *)
  recovered_schedules : Schedule.t list;
      (** the validated suffix schedules, chronological (over re-indexed
          suffix sub-assays) *)
  stats : Runtime.fault_stats;  (** summed over all segments *)
}

val execute :
  ?config:Synthesis.config ->
  ?allow_new_devices:bool ->
  plan:Faults.plan ->
  oracle:Runtime.oracle ->
  Schedule.t ->
  (outcome, error) result
(** Fault-tolerant execution of a synthesis result. [oracle] is keyed by
    {e original} assay operation ids (recovery re-maps suffix ids
    internally, so indeterminate durations are stable across recoveries).
    [config] (default {!Synthesis.default_config}) parameterises every
    re-synthesis. With [allow_new_devices = false] (the default) recovery
    only re-binds the surviving chip — no new device may be integrated
    mid-run — and is guaranteed to terminate because each permanent fault
    shrinks the device set; with [allow_new_devices = true] re-synthesis
    may also integrate fresh devices up to the configured cap, bounded by
    a constant 16 recoveries. Transient faults are retried as
    {!Runtime.execute_under_faults} does (at most 3 retries, backoff
    doubling from 2 minutes).

    Under {!Faults.none} (or a rate-0 plan) the outcome's trace is exactly
    the fault-free {!Runtime.execute} trace. *)

val pp_error : Format.formatter -> error -> unit
