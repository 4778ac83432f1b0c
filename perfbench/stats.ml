(* Sample statistics and span self-time, kept free of I/O so the self-tests
   can drive them on hand-built inputs. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. [p] is an integer percentage so the rank is
   computed exactly (0.99 *. 1000. is not 990 in floating point). *)
let rank ~p n = ((p * n) + 99) / 100

let percentile ~p samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (rank ~p n - 1))

let median samples = percentile ~p:50 samples

(* A tail percentile is only reported when at least ten samples lie beyond
   it; below that it is one or two outliers, not a distribution. *)
let min_beyond = 10

let percentile_supported ~p n = n - rank ~p n >= min_beyond

let tail ~p samples =
  if percentile_supported ~p (List.length samples) then
    Some (percentile ~p samples)
  else None

(* ------------------------------------------------------------ self time *)

(* Self time of a span: its duration minus the direct children that ran on
   the same domain. Spans of one domain nest properly, so walking them in
   start order ([seq]) with a stack of open ancestors finds each span's
   parent: the nearest earlier span on the same [tid] one level up. Spans a
   worker domain ran are roots of their own domain and are charged to no
   parent on another domain. *)
let self_times (spans : Telemetry.span_record list) =
  let by_start =
    List.sort
      (fun (a : Telemetry.span_record) (b : Telemetry.span_record) ->
        compare (a.tid, a.seq) (b.tid, b.seq))
      spans
  in
  let stacks : (int, (Telemetry.span_record * float ref) list) Hashtbl.t =
    Hashtbl.create 4
  in
  let out = ref [] in
  List.iter
    (fun (s : Telemetry.span_record) ->
      let rec unwind = function
        | ((open_span : Telemetry.span_record), _) :: rest
          when open_span.depth >= s.depth ->
          unwind rest
        | stack -> stack
      in
      let stack =
        unwind (Option.value (Hashtbl.find_opt stacks s.tid) ~default:[])
      in
      (match stack with
       | ((parent : Telemetry.span_record), children) :: _
         when parent.depth = s.depth - 1 ->
         children := !children +. s.duration_s
       | _ -> ());
      let children = ref 0.0 in
      out := (s, children) :: !out;
      Hashtbl.replace stacks s.tid ((s, children) :: stack))
    by_start;
  List.rev_map (fun (s, children) -> (s, s.Telemetry.duration_s -. !children)) !out

type span_total = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
  max_s : float;
}

(* Per span name: calls, summed duration, summed self time, longest call;
   sorted by summed duration, longest first. *)
let span_totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Telemetry.span_record), self) ->
      let t =
        Option.value
          (Hashtbl.find_opt tbl s.span_name)
          ~default:
            { name = s.span_name; calls = 0; total_s = 0.0; self_s = 0.0; max_s = 0.0 }
      in
      Hashtbl.replace tbl s.span_name
        {
          t with
          calls = t.calls + 1;
          total_s = t.total_s +. s.duration_s;
          self_s = t.self_s +. self;
          max_s = Float.max t.max_s s.duration_s;
        })
    (self_times spans);
  List.sort
    (fun a b -> Float.compare b.total_s a.total_s)
    (Hashtbl.fold (fun _ t acc -> t :: acc) tbl [])

(* ---------------------------------------------------------- histograms *)

(* Mean of the finite samples of a collector histogram, and the count of
   the others. A non-finite sample (an [inf] gap) lands in the overflow
   bucket and turns the histogram's sum infinite; the finite samples' sum
   is then lost, so each finite sample is taken at its bucket's upper
   bound — an upper estimate, exact again once no sample is infinite. *)
let finite_mean (h : Telemetry.histogram) =
  if h.samples = 0 then (0.0, 0)
  else if Float.is_finite h.sum then (h.sum /. float_of_int h.samples, 0)
  else begin
    let nb = Array.length h.bounds in
    let nonfinite = h.bucket_counts.(nb) in
    let finite = h.samples - nonfinite in
    let upper = ref 0.0 in
    for i = 0 to nb - 1 do
      upper := !upper +. (float_of_int h.bucket_counts.(i) *. h.bounds.(i))
    done;
    ((if finite = 0 then 0.0 else !upper /. float_of_int finite), nonfinite)
  end
