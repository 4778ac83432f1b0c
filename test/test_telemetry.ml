(* Telemetry subsystem: spans, counters, histograms, exporters, and the
   pipeline counters that ride on them. All tests run in one process and
   share the global collector, so each starts with reset + enable and
   restores the wall clock when it installed a fake one. *)

let with_fixed_clock ?(step = 1.0) f =
  let t = ref 0.0 in
  Telemetry.Clock.set_source (fun () ->
      let v = !t in
      t := v +. step;
      v);
  Fun.protect ~finally:Telemetry.Clock.use_wall_clock f

let fresh () =
  Telemetry.enable ();
  Telemetry.reset ()

(* ------------------------------------------------- tiny JSON validator *)

(* Recursive-descent check that a string is one well-formed JSON value.
   Enough for "the exporters emit valid JSON" without a json dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and literal lit =
    String.iter (fun c -> expect c) lit
  and string_lit () =
    expect '"';
    let rec go () =
      if !fail then ()
      else
        match peek () with
        | None -> fail := true
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
             advance ();
             go ()
           | Some 'u' ->
             advance ();
             for _ = 1 to 4 do
               match peek () with
               | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
               | _ -> fail := true
             done;
             go ()
           | _ -> fail := true)
        | Some _ ->
          advance ();
          go ()
    in
    go ()
  and number () =
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail := true
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ())
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail := true
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          items ()
        | Some ']' -> advance ()
        | _ -> fail := true
      in
      items ()
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* ------------------------------------------------------------- spans *)

let test_span_nesting () =
  fresh ();
  with_fixed_clock (fun () ->
      Telemetry.reset ();
      let r =
        Telemetry.span "outer" (fun () ->
            Telemetry.span "inner1" (fun () -> ());
            Telemetry.span "inner2" ~attrs:[ ("k", "v") ] (fun () -> 41) + 1)
      in
      Alcotest.(check int) "span returns the body's value" 42 r;
      let sps = Telemetry.spans () in
      Alcotest.(check (list string))
        "start order" [ "outer"; "inner1"; "inner2" ]
        (List.map (fun s -> s.Telemetry.span_name) sps);
      Alcotest.(check (list int))
        "depths" [ 0; 1; 1 ]
        (List.map (fun s -> s.Telemetry.depth) sps);
      let outer = List.hd sps in
      let inner1 = List.nth sps 1 in
      Alcotest.(check bool) "outer spans its children" true
        (outer.Telemetry.duration_s > inner1.Telemetry.duration_s);
      let inner2 = List.nth sps 2 in
      Alcotest.(check (list (pair string string)))
        "attrs preserved" [ ("k", "v") ] inner2.Telemetry.span_attrs)

let test_span_exception () =
  fresh ();
  (try Telemetry.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Telemetry.spans ()));
  (* the depth stack must have been unwound *)
  Telemetry.span "after" (fun () -> ());
  let after = List.nth (Telemetry.spans ()) 1 in
  Alcotest.(check int) "depth back to 0" 0 after.Telemetry.depth

(* A span left open across [reset] belongs to the data [reset] drops: it
   must neither show up afterwards nor shift the depth or start order of
   the spans recorded after the reset. *)
let test_span_open_across_reset () =
  fresh ();
  Telemetry.span "A" (fun () ->
      Telemetry.reset ();
      Telemetry.span "B" (fun () -> ()));
  Telemetry.span "C" (fun () -> ());
  Alcotest.(check (list (triple string int int)))
    "only B and C, at depth 0 in start order"
    [ ("B", 0, 0); ("C", 0, 1) ]
    (List.map
       (fun s -> (s.Telemetry.span_name, s.Telemetry.depth, s.Telemetry.seq))
       (Telemetry.spans ()))

(* ----------------------------------------------------------- counters *)

let test_counters () =
  fresh ();
  Telemetry.count "b";
  Telemetry.count ~by:2 "a";
  Telemetry.count ~by:3 "a";
  Telemetry.count "b";
  Alcotest.(check (list (pair string int)))
    "aggregated and sorted"
    [ ("a", 5); ("b", 2) ]
    (Telemetry.counters ());
  Alcotest.(check int) "counter_value" 5 (Telemetry.counter_value "a");
  Alcotest.(check int) "missing counter is 0" 0 (Telemetry.counter_value "zz")

let test_histograms () =
  fresh ();
  Telemetry.observe "h" 0.5;
  Telemetry.observe "h" 5.0;
  Telemetry.observe "h" 5e6;
  match Telemetry.histograms () with
  | [ ("h", h) ] ->
    Alcotest.(check int) "samples" 3 h.Telemetry.samples;
    Alcotest.(check (float 1e-9)) "sum" 5_000_005.5 h.Telemetry.sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 h.Telemetry.min_v;
    Alcotest.(check (float 1e-9)) "max" 5e6 h.Telemetry.max_v;
    Alcotest.(check (array (float 0.0)))
      "powers of ten from 1e-6 to 1e6"
      [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6 |]
      h.Telemetry.bounds;
    (* 0.5 falls in (0.1, 1], 5 in (1, 10] and 5e6 past 1e6, in the
       overflow bucket *)
    let expected = Array.make 14 0 in
    List.iter (fun i -> expected.(i) <- 1) [ 6; 7; 13 ];
    Alcotest.(check (array int))
      "fixed buckets incl. overflow" expected h.Telemetry.bucket_counts
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

(* ----------------------------------------------------------- disabled *)

let test_disabled_noop () =
  Telemetry.enable ();
  Telemetry.reset ();
  Telemetry.disable ();
  let r = Telemetry.span "s" (fun () -> 7) in
  Telemetry.count "c";
  Telemetry.observe "h" 1.0;
  Alcotest.(check int) "span still runs the body" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (Telemetry.spans ()));
  Alcotest.(check int) "no counters" 0 (List.length (Telemetry.counters ()));
  Alcotest.(check int) "no histograms" 0 (List.length (Telemetry.histograms ()));
  Telemetry.enable ()

(* ---------------------------------------------------------- exporters *)

let record_sample_run () =
  Telemetry.reset ();
  Telemetry.span "outer" ~attrs:[ ("case", "x\"y\\z") ] (fun () ->
      Telemetry.span "inner" (fun () -> ());
      Telemetry.count ~by:3 "nodes";
      Telemetry.observe "gap" 0.25)

let test_exporters_valid_and_deterministic () =
  fresh ();
  with_fixed_clock (fun () ->
      record_sample_run ();
      let trace1 = Telemetry.Export.chrome_trace () in
      let stats1 = Telemetry.Export.stats_json ~meta:[ ("k", Telemetry.Json.String "v") ] () in
      Alcotest.(check bool) "chrome trace is valid JSON" true (json_valid trace1);
      Alcotest.(check bool) "stats is valid JSON" true (json_valid stats1);
      (* identical run under the same fixed clock must serialise identically *)
      Telemetry.Clock.set_source
        (let t = ref 0.0 in
         fun () ->
           let v = !t in
           t := v +. 1.0;
           v);
      record_sample_run ();
      let trace2 = Telemetry.Export.chrome_trace () in
      let stats2 = Telemetry.Export.stats_json ~meta:[ ("k", Telemetry.Json.String "v") ] () in
      Alcotest.(check string) "chrome trace deterministic" trace1 trace2;
      Alcotest.(check string) "stats deterministic" stats1 stats2;
      (* spot-check content *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "trace names the span" true (contains trace1 "\"outer\"");
      Alcotest.(check bool) "attr escaped" true (contains trace1 "x\\\"y\\\\z");
      Alcotest.(check bool) "counter exported" true (contains stats1 "\"nodes\""))

let test_stats_table () =
  fresh ();
  with_fixed_clock (fun () ->
      record_sample_run ();
      let table = Telemetry.Export.stats_table () in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "table mentions %s" needle)
            true
            (let nh = String.length table and nn = String.length needle in
             let rec go i = i + nn <= nh && (String.sub table i nn = needle || go (i + 1)) in
             go 0))
        [ "outer"; "inner"; "nodes"; "gap" ])

(* Under a clock that steps 1 s per read: [parent] runs 0..7 s, its
   children [a] 1..4 s (with its own child [g] 2..3 s) and [b] 5..6 s. Its
   direct children cover 4 of its 7 s, [a]'s child 1 of its 3 s; the
   grandchild is not one of [parent]'s direct children, and the leaves get
   no row. The JSON report is unchanged by the rows. *)
let test_stats_table_unattributed () =
  fresh ();
  with_fixed_clock (fun () ->
      Telemetry.span "parent" (fun () ->
          Telemetry.span "a" (fun () -> Telemetry.span "g" (fun () -> ()));
          Telemetry.span "b" (fun () -> ())));
  let rows = String.split_on_char '\n' (Telemetry.Export.stats_table ()) in
  let row name =
    List.find_opt (fun l -> String.starts_with ~prefix:(name ^ " ") l) rows
  in
  let gap name =
    Option.map
      (fun l ->
        let fields = List.filter (( <> ) "") (String.split_on_char ' ' l) in
        float_of_string (List.nth fields (List.length fields - 1)))
      (row (name ^ " (unattributed)"))
  in
  Alcotest.(check (option (float 1e-9))) "parent's gap" (Some 3.0) (gap "parent");
  Alcotest.(check (option (float 1e-9))) "a's gap" (Some 2.0) (gap "a");
  Alcotest.(check (option (float 1e-9))) "no row for a leaf" None (gap "b");
  Alcotest.(check (option (float 1e-9))) "no row for a leaf" None (gap "g");
  let json = Telemetry.Export.stats_json () in
  Alcotest.(check bool) "JSON has no unattributed entry" false
    (let needle = "unattributed" in
     let nh = String.length json and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub json i nn = needle || go (i + 1)) in
     go 0)

(* The collector records the calling domain only, so every span carries
   tid 0, in the records and in the trace's complete events alike. *)
let test_spans_on_tid_zero () =
  fresh ();
  record_sample_run ();
  (try
     Telemetry.span "raises" (fun () ->
         Telemetry.span "nested" (fun () -> failwith "x"))
   with Failure _ -> ());
  let sps = Telemetry.spans () in
  Alcotest.(check (list int))
    "every record on tid 0"
    (List.map (fun _ -> 0) sps)
    (List.map (fun s -> s.Telemetry.tid) sps);
  let trace = Telemetry.Export.chrome_trace () in
  let find_from i needle =
    let nh = String.length trace and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub trace i nn = needle then Some i
      else go (i + 1)
    in
    go i
  in
  (* each complete event's fields run name, cat, ph, ts, dur, pid, tid *)
  let rec tids i acc =
    match find_from i "\"ph\":\"X\"" with
    | None -> List.rev acc
    | Some at -> (
      match find_from at "\"tid\":" with
      | None -> Alcotest.fail "complete event without tid"
      | Some t ->
        let v = t + String.length "\"tid\":" in
        let stop = String.index_from trace v ',' in
        tids v (String.sub trace v (stop - v) :: acc))
  in
  Alcotest.(check (list string))
    "one complete event per span, each on tid 0"
    (List.map (fun _ -> "0") sps)
    (tids 0 [])

(* --------------------------------------------- pipeline integration *)

let tiny_indeterminate_assay () =
  let open Microfluidics in
  let a = Assay.create ~name:"telemetry-regress" in
  let o1 = Assay.add_operation a ~duration:(Operation.Fixed 5) "prep" in
  let o2 =
    Assay.add_operation a
      ~duration:(Operation.Indeterminate { min_minutes = 5 })
      "culture"
  in
  let o3 = Assay.add_operation a ~duration:(Operation.Fixed 5) "detect" in
  Assay.add_dependency a ~parent:o1 ~child:o2;
  Assay.add_dependency a ~parent:o2 ~child:o3;
  a

let test_retry_oracle_interventions_reported () =
  fresh ();
  let assay = tiny_indeterminate_assay () in
  let r = Cohls.Synthesis.run assay in
  (* success probability low enough that some op retries under the fixed
     splitmix hash stream; scan seeds so the test is not hash-brittle *)
  let intervened seed =
    let oracle =
      Cohls.Runtime.retry_oracle ~seed ~success_probability:0.2
        ~attempt_minutes:7 assay
    in
    (match Cohls.Runtime.execute r.Cohls.Synthesis.final oracle with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "execute failed: %s" e);
    Telemetry.counter_value "runtime.retry_oracle.interventions" > 0
  in
  let any = List.exists intervened [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool) "retry oracle intervention counted" true any;
  Alcotest.(check bool) "oracle calls counted" true
    (Telemetry.counter_value "runtime.retry_oracle.calls" > 0);
  (* ...and the counter surfaces in both stats exports *)
  let table = Telemetry.Export.stats_table () in
  let json = Telemetry.Export.stats_json () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stats table reports interventions" true
    (contains table "runtime.retry_oracle.interventions");
  Alcotest.(check bool) "stats json reports interventions" true
    (contains json "runtime.retry_oracle.interventions");
  Alcotest.(check bool) "stats json valid" true (json_valid json)

let test_synthesis_spans_recorded () =
  fresh ();
  let assay = tiny_indeterminate_assay () in
  ignore (Cohls.Synthesis.run assay);
  let names = List.map (fun s -> s.Telemetry.span_name) (Telemetry.spans ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "synthesis.run"; "synthesis.pass"; "layering.compute"; "layer.solve" ];
  Alcotest.(check bool) "per-layer solves counted" true
    (Telemetry.counter_value "layer.solves" > 0);
  Telemetry.disable ()

let ilp_config =
  {
    Cohls.Synthesis.default_config with
    Cohls.Synthesis.engine =
      Cohls.Layer_solver.Ilp
        {
          options =
            { Lp.Branch_bound.default_options with Lp.Branch_bound.node_limit = Some 50 };
          extra_free_slots = 1;
        };
  }

(* Every stage of an ILP layer solve outside the tree search has its own
   span; the extraction runs only for an accepted ILP schedule. *)
let test_ilp_spans_recorded () =
  fresh ();
  ignore (Cohls.Synthesis.run ~config:ilp_config (tiny_indeterminate_assay ()));
  let names = List.map (fun s -> s.Telemetry.span_name) (Telemetry.spans ()) in
  let improved = Telemetry.counter_value "layer.ilp_improved" > 0 in
  List.iter
    (fun (expected, always) ->
      if always || improved then
        Alcotest.(check bool)
          (Printf.sprintf "span %s present" expected)
          true (List.mem expected names))
    [
      ("layer.ilp", true);
      ("ilp.model.build", true);
      ("ilp.warm_start", true);
      ("lp.bb.solve", true);
      ("ilp.extract", false);
    ];
  Telemetry.disable ()

(* Under the ILP engine the whole-run heuristic guard counts its passes
   apart, as many as a heuristic run of the assay counts: the run's pass
   and layer-solve counters describe the ILP run alone, and the guard's
   passes keep their spans, nested under the guard's. *)
let test_heuristic_guard_counted_apart () =
  let assay = tiny_indeterminate_assay () in
  fresh ();
  ignore (Cohls.Synthesis.run assay);
  let heuristic_passes = Telemetry.counter_value "synthesis.passes" in
  fresh ();
  let r = Cohls.Synthesis.run ~config:ilp_config assay in
  let c = Telemetry.counter_value in
  let passes = c "synthesis.passes" and guard_passes = c "synthesis.heuristic_guard.passes" in
  let layers = Array.length r.Cohls.Synthesis.layering.Cohls.Layering.layers in
  let check = Alcotest.(check int) in
  check "guard passes" heuristic_passes guard_passes;
  check "run passes: the first, then each accepted or rejected" passes
    (1 + c "synthesis.passes_accepted" + c "synthesis.passes_rejected");
  check "layer solves: every layer of each run pass" (layers * passes) (c "layer.solves");
  let spans = Telemetry.spans () in
  let guard =
    List.find (fun s -> s.Telemetry.span_name = "synthesis.heuristic_guard") spans
  in
  let pass_spans = List.filter (fun s -> s.Telemetry.span_name = "synthesis.pass") spans in
  check "every pass has a span" (passes + guard_passes) (List.length pass_spans);
  check "guard passes nest under the guard" guard_passes
    (List.length
       (List.filter
          (fun s -> s.Telemetry.seq > guard.seq && s.Telemetry.depth > guard.depth)
          pass_spans));
  Telemetry.disable ()

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "span open across reset" `Quick
            test_span_open_across_reset;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter aggregation" `Quick test_counters;
          Alcotest.test_case "histogram buckets" `Quick test_histograms;
          Alcotest.test_case "disabled collector no-op" `Quick test_disabled_noop;
        ] );
      ( "export",
        [
          Alcotest.test_case "valid + deterministic JSON" `Quick
            test_exporters_valid_and_deterministic;
          Alcotest.test_case "ascii stats table" `Quick test_stats_table;
          Alcotest.test_case "stats table shows unattributed time" `Quick
            test_stats_table_unattributed;
          Alcotest.test_case "every span on tid 0" `Quick test_spans_on_tid_zero;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "retry oracle interventions in report" `Quick
            test_retry_oracle_interventions_reported;
          Alcotest.test_case "synthesis spans recorded" `Quick
            test_synthesis_spans_recorded;
          Alcotest.test_case "ILP stage spans recorded" `Quick test_ilp_spans_recorded;
          Alcotest.test_case "heuristic guard counted apart" `Quick
            test_heuristic_guard_counted_apart;
        ] );
    ]
