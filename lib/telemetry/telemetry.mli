(** In-memory telemetry: hierarchical timed spans, named counters and
    histograms, with Chrome trace_event and flat-stats exporters.

    The collector is global, records the calling domain only (the whole
    pipeline runs on one domain), and is disabled by default: every
    instrumentation entry point first reads one boolean flag and returns
    immediately when recording is off, so instrumented hot paths cost a
    single branch in production runs. It takes no lock, so do not record
    from a second domain. *)

(** Time source used by every span and by callers that need wall-clock
    measurements. Defaults to [Unix.gettimeofday]; tests install a fixed
    or stepped source to make trace output deterministic. *)
module Clock : sig
  val now_s : unit -> float
  (** Current time in seconds from the active source. *)

  val timed : (unit -> 'a) -> 'a * float
  (** [timed f] runs [f] and returns its result with the elapsed seconds. *)

  val set_source : (unit -> float) -> unit
  (** Replace the time source (e.g. with a deterministic counter). *)

  val use_wall_clock : unit -> unit
  (** Restore the default [Unix.gettimeofday] source. *)
end

(** Minimal JSON construction with correct string escaping; shared by the
    exporters and by clients (CLI, bench harness) that assemble their own
    machine-readable reports around telemetry data. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering; floats use a fixed format so equal
      inputs always serialise identically. *)
end

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded data and re-anchor the trace epoch at [Clock.now_s ()].
    Does not change the enabled flag. A span still open is dropped with the
    old data: it neither appears afterwards nor shifts the depth or start
    order of the spans recorded after the reset. *)

type span_record = {
  span_name : string;
  start_s : float;
  duration_s : float;
  depth : int;  (** nesting depth at start, 0 = top level *)
  tid : int;  (** always 0: the collector records one domain *)
  seq : int;  (** start order since the last {!reset}, unique *)
  span_attrs : (string * string) list;
}

type histogram = {
  samples : int;
  sum : float;
  min_v : float;
  max_v : float;
  bounds : float array;  (** upper bounds of the fixed buckets *)
  bucket_counts : int array;  (** length = [Array.length bounds + 1]; the
                                  last bucket is the +inf overflow *)
}

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] as a hierarchical span; its depth is the number
    of spans open when it starts. The span is recorded even when [f]
    raises. When the collector is disabled this is exactly [f ()]. *)

val count : ?by:int -> string -> unit
(** Bump a named monotonic counter (default increment 1). *)

val observe : string -> float -> unit
(** Record one sample into a named histogram. Every histogram has the same
    bucket upper bounds, the powers of ten from 1e-6 to 1e6, plus an
    overflow bucket. *)

val spans : unit -> span_record list
(** Completed spans in deterministic start order. *)

val counters : unit -> (string * int) list
(** Counters sorted by name. *)

val histograms : unit -> (string * histogram) list
(** Histograms sorted by name. *)

val counter_value : string -> int
(** Current value of one counter, 0 when never bumped. *)

module Export : sig
  val write_atomic : string -> string -> unit
  (** [write_atomic path content] writes [content] to [path] via a temp
      file in the same directory and an atomic rename, so an interrupt or
      [Sys_error] mid-write never leaves a truncated report for tooling
      (e.g. the CI perf gate) to trip over. *)

  val chrome_trace : unit -> string
  (** Chrome trace_event JSON ({i chrome://tracing} / Perfetto): one
      complete ("ph":"X") event per span with microsecond timestamps
      relative to the collector epoch, plus one counter ("ph":"C") event
      per named counter. The process is named ["cohls"]. *)

  val stats_json : ?meta:(string * Json.t) list -> unit -> string
  (** Flat report: spans aggregated by name, counters, histograms. *)

  val stats_table : unit -> string
  (** Human-readable ASCII rendering of the same aggregates. Below each
      span name with child spans, a [<name> (unattributed)] row gives its
      total minus its direct children's totals: the time no child span
      covers. *)
end
