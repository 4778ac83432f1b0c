(** Reagent-transportation-time estimation (paper §4.1).

    Channel lengths are unknown during high-level synthesis, so the paper
    (1) starts from a user constant [t] for every operation, (2) after a
    full synthesis pass refines each operation's transportation time to a
    term of an arithmetic progression (here 2..10 minutes in 5 terms) —
    paths used more often
    get shorter channels, hence shorter times — and (3) zeroes the time when
    all of an operation's children share its device. *)

val term : int -> int
(** [term k] is the [k]-th term of the progression 2, 4, 6, 8, 10 minutes
    ([k] clamped into [0 .. 4]); term 0 is the shortest, most-used path. *)

type t
(** Per-operation transportation times. *)

val constant : op_count:int -> int -> t
(** The initial estimate: the same [t] for every operation. *)

val time : t -> int -> int
(** Transportation time of an operation's outputs, in minutes. *)

val refine :
  op_count:int ->
  binding:(int -> int option) ->
  children:(int -> int list) ->
  path_usage:((int * int) * int) list ->
  t
(** Layout-aware refinement from a previous iteration's binding: for every
    operation, the most-used (hence shortest) path among those its reagents
    travel determines the progression term; same-device transfers cost 0;
    unbound operations keep the slowest term. [binding] maps an op to its
    device, [path_usage] is sorted most-used-first (as produced by
    {!Microfluidics.Chip.path_usage}). *)

val of_layout :
  op_count:int ->
  binding:(int -> int option) ->
  children:(int -> int list) ->
  layout:Microfluidics.Layout.t ->
  t
(** Alternative refinement taking estimated Manhattan channel lengths from a
    {!Microfluidics.Layout} placement instead of usage ranks. *)

val pp : Format.formatter -> t -> unit
