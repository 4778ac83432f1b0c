module Clock = struct
  let wall = Unix.gettimeofday
  let source = ref wall
  let now_s () = !source ()

  let timed f =
    let t0 = now_s () in
    let v = f () in
    (v, now_s () -. t0)

  let set_source f = source := f
  let use_wall_clock () = source := wall
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* One fixed float format keeps equal inputs byte-identical across runs;
     NaN/inf have no JSON encoding, so map them to null. *)
  let add_float buf f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.6f" f)

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    emit buf t;
    Buffer.contents buf
end

type span_record = {
  span_name : string;
  start_s : float;
  duration_s : float;
  depth : int;
  tid : int;
  seq : int;
  span_attrs : (string * string) list;
}

type histogram = {
  samples : int;
  sum : float;
  min_v : float;
  max_v : float;
  bounds : float array;
  bucket_counts : int array;
}

let bucket_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6 |]

type hist_state = {
  mutable h_samples : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_counts : int array;
}

(* Global collector for the calling domain (the pipeline runs on one). The
   enabled flag is the only state read on the disabled fast path; [reset]
   replaces the whole record, and a span finishes into the record it
   started in, so a span left open across [reset] is dropped with the old
   data and leaves the new record's depth alone. *)
type state = {
  mutable completed : span_record list;
  mutable next_seq : int;
  mutable depth : int;
  counter_tbl : (string, int ref) Hashtbl.t;
  hist_tbl : (string, hist_state) Hashtbl.t;
  epoch : float;
}

let fresh_state () =
  {
    completed = [];
    next_seq = 0;
    depth = 0;
    counter_tbl = Hashtbl.create 32;
    hist_tbl = Hashtbl.create 16;
    epoch = Clock.now_s ();
  }

let on = ref false
let state = ref (fresh_state ())
let enabled () = !on
let enable () = on := true
let disable () = on := false
let reset () = state := fresh_state ()

let span ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let st = !state in
    let depth = st.depth and seq = st.next_seq in
    st.depth <- depth + 1;
    st.next_seq <- seq + 1;
    let t0 = Clock.now_s () in
    let finish () =
      let t1 = Clock.now_s () in
      st.depth <- st.depth - 1;
      st.completed <-
        {
          span_name = name;
          start_s = t0;
          duration_s = t1 -. t0;
          depth;
          tid = 0;
          seq;
          span_attrs = attrs;
        }
        :: st.completed
    in
    Fun.protect ~finally:finish f
  end

let count ?(by = 1) name =
  if !on && by <> 0 then begin
    let tbl = !state.counter_tbl in
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tbl name (ref by)
  end

let observe name v =
  if !on then begin
    let tbl = !state.hist_tbl in
    let h =
      match Hashtbl.find_opt tbl name with
      | Some h -> h
      | None ->
        let h =
          {
            h_samples = 0;
            h_sum = 0.0;
            h_min = Float.infinity;
            h_max = Float.neg_infinity;
            h_counts = Array.make (Array.length bucket_bounds + 1) 0;
          }
        in
        Hashtbl.replace tbl name h;
        h
    in
    h.h_samples <- h.h_samples + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let n = Array.length bucket_bounds in
    let rec slot i = if i >= n || v <= bucket_bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.h_counts.(i) <- h.h_counts.(i) + 1
  end

let spans () = List.sort (fun a b -> Int.compare a.seq b.seq) !state.completed

let counters () =
  List.sort compare
    (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) !state.counter_tbl [])

let histograms () =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold
       (fun name h acc ->
         ( name,
           {
             samples = h.h_samples;
             sum = h.h_sum;
             min_v = h.h_min;
             max_v = h.h_max;
             bounds = Array.copy bucket_bounds;
             bucket_counts = Array.copy h.h_counts;
           } )
         :: acc)
       !state.hist_tbl [])

let counter_value name =
  match Hashtbl.find_opt !state.counter_tbl name with Some r -> !r | None -> 0

(* ------------------------------------------------------------ exporters *)

module Export = struct
  (* Report files are read by tooling (the CI perf gate, trace viewers), so
     a crash or interrupt mid-write must not leave a truncated file behind:
     write to a temp file in the same directory, then rename into place —
     atomic on POSIX. *)
  let write_atomic path content =
    let dir = Filename.dirname path in
    let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
      (fun () ->
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc content;
            flush oc);
        Sys.rename tmp path)

  (* Spans aggregated by name for the flat report. *)
  let span_aggregates sps =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt tbl s.span_name with
        | Some (n, total, mn, mx) ->
          Hashtbl.replace tbl s.span_name
            ( n + 1,
              total +. s.duration_s,
              Float.min mn s.duration_s,
              Float.max mx s.duration_s )
        | None ->
          Hashtbl.replace tbl s.span_name (1, s.duration_s, s.duration_s, s.duration_s))
      sps;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let chrome_trace () =
    let t0 = !state.epoch in
    let sps = spans () in
    let us t = (t -. t0) *. 1e6 in
    let span_event s =
      let base =
        [
          ("name", Json.String s.span_name);
          ("cat", Json.String "cohls");
          ("ph", Json.String "X");
          ("ts", Json.Float (us s.start_s));
          ("dur", Json.Float (s.duration_s *. 1e6));
          ("pid", Json.Int 1);
          ("tid", Json.Int s.tid);
        ]
      in
      let args =
        ("depth", Json.Int s.depth)
        :: List.map (fun (k, v) -> (k, Json.String v)) s.span_attrs
      in
      Json.Obj (base @ [ ("args", Json.Obj args) ])
    in
    let end_ts =
      List.fold_left
        (fun acc s -> Float.max acc (us s.start_s +. (s.duration_s *. 1e6)))
        0.0 sps
    in
    let counter_event (name, v) =
      Json.Obj
        [
          ("name", Json.String name);
          ("cat", Json.String "cohls");
          ("ph", Json.String "C");
          ("ts", Json.Float end_ts);
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("value", Json.Int v) ]);
        ]
    in
    let meta =
      Json.Obj
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String "cohls") ]);
        ]
    in
    let events =
      (meta :: List.map span_event sps)
      @ List.map counter_event (counters ())
    in
    Json.to_string
      (Json.Obj
         [
           ("traceEvents", Json.List events);
           ("displayTimeUnit", Json.String "ms");
         ])

  (* Min, max and mean of a histogram; an empty one reports 0 for each. *)
  let summary h =
    if h.samples = 0 then (0.0, 0.0, 0.0)
    else (h.min_v, h.max_v, h.sum /. float_of_int h.samples)

  let histogram_json (name, h) =
    let mn, mx, mean = summary h in
    let bucket i count =
      let le =
        if i < Array.length h.bounds then Json.Float h.bounds.(i)
        else Json.String "inf"
      in
      Json.Obj [ ("le", le); ("count", Json.Int count) ]
    in
    Json.Obj
      [
        ("name", Json.String name);
        ("count", Json.Int h.samples);
        ("sum", Json.Float h.sum);
        ("min", Json.Float mn);
        ("max", Json.Float mx);
        ("mean", Json.Float mean);
        ("buckets", Json.List (List.mapi bucket (Array.to_list h.bucket_counts)));
      ]

  let stats_json ?(meta = []) () =
    let span_json (name, (n, total, mn, mx)) =
      Json.Obj
        [
          ("name", Json.String name);
          ("count", Json.Int n);
          ("total_s", Json.Float total);
          ("min_s", Json.Float mn);
          ("max_s", Json.Float mx);
        ]
    in
    let counter_json (name, v) =
      Json.Obj [ ("name", Json.String name); ("value", Json.Int v) ]
    in
    let fields =
      (if meta = [] then [] else [ ("meta", Json.Obj meta) ])
      @ [
          ("spans", Json.List (List.map span_json (span_aggregates (spans ()))));
          ("counters", Json.List (List.map counter_json (counters ())));
          ("histograms", Json.List (List.map histogram_json (histograms ())));
        ]
    in
    Json.to_string (Json.Obj fields)

  (* Per span name, the summed totals of its direct children, for the names
     that have any. [sps] is in start order and completed spans nest, so a
     span's parent is the latest span started before it one level up. *)
  let child_totals sps =
    let last_at_depth = Hashtbl.create 8 and tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : span_record) ->
        Hashtbl.replace last_at_depth s.depth s.span_name;
        match Hashtbl.find_opt last_at_depth (s.depth - 1) with
        | Some parent ->
          let sum = Option.value ~default:0.0 (Hashtbl.find_opt tbl parent) in
          Hashtbl.replace tbl parent (sum +. s.duration_s)
        | None -> ())
      sps;
    tbl

  let stats_table () =
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let sps = spans () in
    let aggs = span_aggregates sps in
    if aggs <> [] then begin
      let children = child_totals sps in
      line "%-38s %8s %12s %12s %12s" "span" "count" "total_s" "min_s" "max_s";
      line "%s" (String.make 86 '-');
      List.iter
        (fun (name, (n, total, mn, mx)) ->
          line "%-38s %8d %12.6f %12.6f %12.6f" name n total mn mx;
          (* the parent's time no child span covers *)
          Option.iter
            (fun inner -> line "%-38s %8s %12.6f" (name ^ " (unattributed)") "" (total -. inner))
            (Hashtbl.find_opt children name))
        aggs
    end;
    let cs = counters () in
    if cs <> [] then begin
      if aggs <> [] then line "";
      line "%-46s %12s" "counter" "value";
      line "%s" (String.make 59 '-');
      List.iter (fun (name, v) -> line "%-46s %12d" name v) cs
    end;
    let hs = histograms () in
    if hs <> [] then begin
      if aggs <> [] || cs <> [] then line "";
      line "%-38s %8s %12s %12s %12s" "histogram" "count" "mean" "min" "max";
      line "%s" (String.make 86 '-');
      List.iter
        (fun (name, h) ->
          let mn, mx, mean = summary h in
          line "%-38s %8d %12.4f %12.4f %12.4f" name h.samples mean mn mx)
        hs
    end;
    if aggs = [] && cs = [] && hs = [] then
      Buffer.add_string buf "telemetry: no data recorded (collector disabled?)\n";
    Buffer.contents buf
end
