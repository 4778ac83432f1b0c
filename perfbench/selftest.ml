(* Self-tests of the benchmark's own arithmetic: the percentile rule, span
   self time on a hand-built span list, and the finite-sample mean of a
   histogram. Every benchmark run executes them first and refuses to report
   numbers when one fails; `main.exe --self-test` runs them alone. *)

let failures = ref []

let check name ok = if not ok then failures := name :: !failures

let close a b = Float.abs (a -. b) < 1e-9

let percentile_rule () =
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  check "rank p99 n=1000 is 990" (Stats.rank ~p:99 1000 = 990);
  check "rank p99 n=999 is 990" (Stats.rank ~p:99 999 = 990);
  check "rank p50 n=5 is 3" (Stats.rank ~p:50 5 = 3);
  check "median of 1..5" (close (Stats.median (ints 5)) 3.0);
  check "median of 1..4 is the lower middle" (close (Stats.median (ints 4)) 2.0);
  check "p99 of 1..1000" (close (Stats.percentile ~p:99 (ints 1000)) 990.0);
  check "p99 ignores input order"
    (close (Stats.percentile ~p:99 (List.rev (ints 1000))) 990.0);
  (* exactly ten samples beyond the p99 at n = 1000, nine at n = 999 *)
  check "p99 supported at n=1000" (Stats.percentile_supported ~p:99 1000);
  check "p99 unsupported at n=999" (not (Stats.percentile_supported ~p:99 999));
  check "p90 supported at n=100" (Stats.percentile_supported ~p:90 100);
  check "p90 unsupported at n=99" (not (Stats.percentile_supported ~p:90 99));
  check "tail None below the rule" (Stats.tail ~p:99 (ints 500) = None);
  check "tail Some at the rule" (Stats.tail ~p:99 (ints 1000) = Some 990.0)

let span ~name ~tid ~depth ~seq ~start ~dur =
  {
    Telemetry.span_name = name;
    start_s = start;
    duration_s = dur;
    depth;
    tid;
    seq;
    span_attrs = [];
  }

let self_time () =
  (* domain 0: root [0,10) holds a [1,5) (which holds g [1,4)) and b [6,8);
     a second root r2 [11,12) follows. Domain 1: worker w [2,7), a root of
     its own domain, charged to nothing on domain 0. *)
  let spans =
    [
      span ~name:"b" ~tid:0 ~depth:1 ~seq:3 ~start:6.0 ~dur:2.0;
      span ~name:"root" ~tid:0 ~depth:0 ~seq:0 ~start:0.0 ~dur:10.0;
      span ~name:"w" ~tid:1 ~depth:0 ~seq:4 ~start:2.0 ~dur:5.0;
      span ~name:"a" ~tid:0 ~depth:1 ~seq:1 ~start:1.0 ~dur:4.0;
      span ~name:"g" ~tid:0 ~depth:2 ~seq:2 ~start:1.0 ~dur:3.0;
      span ~name:"r2" ~tid:0 ~depth:0 ~seq:5 ~start:11.0 ~dur:1.0;
    ]
  in
  let self = Stats.self_times spans in
  let self_of name =
    match
      List.find_opt (fun ((s : Telemetry.span_record), _) -> s.span_name = name) self
    with
    | Some (_, v) -> v
    | None -> nan
  in
  check "self root = 10 - a - b" (close (self_of "root") 4.0);
  check "self a = 4 - g" (close (self_of "a") 1.0);
  check "self g = leaf" (close (self_of "g") 3.0);
  check "self b = leaf" (close (self_of "b") 2.0);
  check "self w = other domain, leaf" (close (self_of "w") 5.0);
  check "self r2 = new root" (close (self_of "r2") 1.0);
  check "every span kept" (List.length self = List.length spans);
  let totals =
    Stats.span_totals
      (spans @ [ span ~name:"g" ~tid:1 ~depth:1 ~seq:6 ~start:3.0 ~dur:1.0 ])
  in
  match List.find_opt (fun (t : Stats.span_total) -> t.name = "g") totals with
  | Some g ->
    check "totals: g twice" (g.calls = 2);
    check "totals: g summed" (close g.total_s 4.0);
    check "totals: g max" (close g.max_s 3.0)
  | None -> check "totals: g present" false

let finite_mean () =
  let bounds = [| 0.1; 1.0 |] in
  let finite =
    {
      Telemetry.samples = 2;
      sum = 0.6;
      min_v = 0.1;
      max_v = 0.5;
      bounds;
      bucket_counts = [| 1; 1; 0 |];
    }
  in
  let mean, nonfinite = Stats.finite_mean finite in
  check "finite mean exact" (close mean 0.3 && nonfinite = 0);
  let with_inf =
    { finite with samples = 3; sum = infinity; max_v = infinity; bucket_counts = [| 1; 1; 1 |] }
  in
  let mean, nonfinite = Stats.finite_mean with_inf in
  check "inf sample counted, not averaged" (nonfinite = 1 && close mean 0.55);
  let all_inf = { finite with sum = infinity; bucket_counts = [| 0; 0; 2 |] } in
  check "all inf gives 0 over 2" (Stats.finite_mean all_inf = (0.0, 2))

let run () =
  failures := [];
  percentile_rule ();
  self_time ();
  finite_mean ();
  List.rev !failures
