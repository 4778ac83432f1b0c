(* A fixed reference computation that shares no code with the library, run
   in small chunks between the requests of every pass, so pass times can be
   put on the scale of a reference machine.

   The shared 2-core hosts this benchmark runs on alternate between states
   in which the same deterministic pass takes up to 1.5x longer, changing
   from one second to the next as well as over minutes; the process's CPU
   time rises with its wall time, so it is contention below the container,
   not waiting. A run that falls in a slow state reads slow whatever
   statistic it reports. The reference computation slows down with the
   state too, and a library change cannot move it, so [pass time *
   reference_s / chunk time] measures the pass against a yardstick that
   moves with the machine. One long sample beside a pass reads the machine
   in the moment it ran; chunks spread through the pass read it while the
   pass ran.

   A chunk probes a hash table of 32k slots (256 KB, so it stays in the
   core's cache) and builds and sorts a small balanced map. Of the kernels
   tried, these two tracked the workloads' pass times best across machine
   states; a dense float mat-vec loop, breadth-first search over an int
   array and probes into a table too big for the core's cache tracked worse,
   the last one far worse on ilp-kinase and scale-layering (see NOTES.md).
   The table is a bigarray outside the OCaml heap and the map keeps a few
   kilobytes live, so chunks neither add to the workloads' heap nor leave
   much for the collector. *)

open Bigarray

let lcg s = ((s * 1103515245) + 12345) land 0x3fffffff

let table_bits = 15

(* Linear probing; 0 marks a free slot, keys are odd. *)
let probe table key =
  let mask = (1 lsl table_bits) - 1 in
  let i = ref ((key * 40503) land mask) in
  while table.{!i} <> 0 && table.{!i} <> key do
    i := (!i + 1) land mask
  done;
  !i

(* Filled once to a load of 0.37; chunks only read it. *)
let table =
  lazy
    (let table = Array1.create int c_layout (1 lsl table_bits) in
     Array1.fill table 0;
     let s = ref 7 in
     for _ = 1 to 12_000 do
       s := lcg !s;
       let key = !s lor 1 in
       table.{probe table key} <- key
     done;
     table)

module Int_map = Map.Make (Int)

let chunk () =
  let table = Lazy.force table in
  let found = ref 0 and s = ref 3 in
  for _ = 1 to 30_000 do
    s := lcg !s;
    let key = !s lor 1 in
    if table.{probe table key} = key then incr found
  done;
  let m = ref Int_map.empty in
  for i = 1 to 1_500 do
    s := lcg !s;
    m := Int_map.add (!s land 0xfffff) i !m
  done;
  let l = Int_map.fold (fun k v acc -> (k lxor v, k) :: acc) !m [] in
  !found + List.length (List.sort compare l)

(* Chunks owe this share of the time spent in requests. *)
let share = 0.15

type meter = { mutable owed : float; mutable chunks : int; mutable chunk_s : float }

let meter = { owed = 0.0; chunks = 0; chunk_s = 0.0 }

(* Called after each request that took [seconds]: runs chunks until the
   time they have taken since the start catches up with [share] of the
   requests' time. Most short requests run none; a long one runs many. *)
let after ~seconds =
  meter.owed <- meter.owed +. (share *. seconds);
  if meter.owed > 0.0 then
    Telemetry.span "bench.calibrate" (fun () ->
        while meter.owed > 0.0 do
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (chunk ()));
          let t = Unix.gettimeofday () -. t0 in
          meter.owed <- meter.owed -. t;
          meter.chunks <- meter.chunks + 1;
          meter.chunk_s <- meter.chunk_s +. t
        done)

(* The chunks run since the last call, and their summed seconds. *)
let take () =
  let r = (meter.chunks, meter.chunk_s) in
  meter.chunks <- 0;
  meter.chunk_s <- 0.0;
  r

(* A chunk's median time on the machine the figures in NOTES.md were taken
   on (a 2-core Intel Xeon container). Scaled times read in that machine's
   seconds. *)
let reference_s = 0.002

(* [seconds] scaled by the reference over the mean time of [chunks] chunks
   that took [chunk_s] in all; [None] without chunks. *)
let scale ~chunks ~chunk_s seconds =
  if chunks = 0 then None
  else Some (seconds *. reference_s *. float_of_int chunks /. chunk_s)
