(* Tests for the physical-design estimate: floorplanning, maze routing and
   the routed-length transportation source. *)

open Microfluidics
open Components

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int

let mk_device id accs =
  Device.make ~id ~container:Container.Chamber ~capacity:Capacity.Small
    ~accessories:accs

let demo_devices () = [ mk_device 0 []; mk_device 1 [ Accessory.Pump ]; mk_device 2 [] ]

let demo_usage = [ ((0, 1), 5); ((1, 2), 2) ]

let test_floorplan_basic () =
  let fp =
    Physical.Floorplan.plan ~cost:Cost.default ~devices:(demo_devices ())
      ~path_usage:demo_usage ()
  in
  check int_t "three rects" 3 (List.length fp.Physical.Floorplan.rects);
  check bool "die is positive" true (Physical.Floorplan.die_area fp > 0);
  (* footprints cover the area cost *)
  List.iter
    (fun (r : Physical.Floorplan.rect) ->
      let d = List.find (fun (d : Device.t) -> d.Device.id = r.Physical.Floorplan.device) (demo_devices ()) in
      check bool "footprint >= area" true
        (r.Physical.Floorplan.w * r.Physical.Floorplan.h >= Cost.device_area Cost.default d))
    fp.Physical.Floorplan.rects;
  (* no overlapping rectangles *)
  let rec pairwise = function
    | [] -> ()
    | (r : Physical.Floorplan.rect) :: rest ->
      List.iter
        (fun (r' : Physical.Floorplan.rect) ->
          let disjoint =
            r.Physical.Floorplan.x + r.Physical.Floorplan.w <= r'.Physical.Floorplan.x
            || r'.Physical.Floorplan.x + r'.Physical.Floorplan.w <= r.Physical.Floorplan.x
            || r.Physical.Floorplan.y + r.Physical.Floorplan.h <= r'.Physical.Floorplan.y
            || r'.Physical.Floorplan.y + r'.Physical.Floorplan.h <= r.Physical.Floorplan.y
          in
          check bool "rects disjoint" true disjoint)
        rest;
      pairwise rest
  in
  pairwise fp.Physical.Floorplan.rects

let test_floorplan_empty () =
  let fp = Physical.Floorplan.plan ~cost:Cost.default ~devices:[] ~path_usage:[] () in
  check int_t "no rects" 0 (List.length fp.Physical.Floorplan.rects);
  check int_t "zero area" 0 (Physical.Floorplan.die_area fp)

let test_floorplan_occupancy_and_ports () =
  let fp =
    Physical.Floorplan.plan ~cost:Cost.default ~devices:(demo_devices ())
      ~path_usage:demo_usage ()
  in
  List.iter
    (fun (r : Physical.Floorplan.rect) ->
      check bool "inside occupied" true
        (Physical.Floorplan.occupied fp ~x:r.Physical.Floorplan.x ~y:r.Physical.Floorplan.y);
      let px, py = Physical.Floorplan.port_of fp r.Physical.Floorplan.device in
      check bool "port outside the rect" false (Physical.Floorplan.occupied fp ~x:px ~y:py))
    fp.Physical.Floorplan.rects

let test_routing_demo () =
  let fp =
    Physical.Floorplan.plan ~cost:Cost.default ~devices:(demo_devices ())
      ~path_usage:demo_usage ()
  in
  let r = Physical.Router.route_all fp ~path_usage:demo_usage in
  check int_t "both channels routed" 2 (List.length r.Physical.Router.routes);
  check int_t "no failures" 0 (List.length r.Physical.Router.failures);
  check bool "lengths positive" true (r.Physical.Router.total_length > 0);
  (* routed cells are contiguous and avoid device interiors *)
  List.iter
    (fun (route : Physical.Router.route) ->
      let rec contiguous = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
          abs (x1 - x2) + abs (y1 - y2) = 1 && contiguous rest
        | [ _ ] | [] -> true
      in
      check bool "contiguous" true (contiguous route.Physical.Router.cells);
      List.iter
        (fun (x, y) ->
          check bool "avoids devices" false (Physical.Floorplan.occupied fp ~x ~y))
        route.Physical.Router.cells;
      check int_t "length = cells - 1"
        (List.length route.Physical.Router.cells - 1)
        route.Physical.Router.length)
    r.Physical.Router.routes

let test_routing_hot_path_shorter () =
  (* the hottest path is routed first and should not be longer than the
     Manhattan distance plus the halo detours of a fresh grid *)
  let fp =
    Physical.Floorplan.plan ~cost:Cost.default ~devices:(demo_devices ())
      ~path_usage:demo_usage ()
  in
  let r = Physical.Router.route_all fp ~path_usage:demo_usage in
  match Physical.Router.channel_length r 0 1 with
  | Some len ->
    let (x0, y0) = Physical.Floorplan.port_of fp 0 in
    let (x1, y1) = Physical.Floorplan.port_of fp 1 in
    let manhattan = abs (x0 - x1) + abs (y0 - y1) in
    check bool "hot channel near-minimal" true (len <= manhattan + 6)
  | None -> Alcotest.fail "hot path not routed"

let test_design_of_schedule () =
  let assay = Assays.Kinase.testcase () in
  let result = Cohls.Synthesis.run assay in
  let design = Physical.Physical_design.of_schedule Cost.default result.Cohls.Synthesis.final in
  let die, len, crossings = Physical.Physical_design.quality design in
  check bool "die positive" true (die > 0);
  check bool "all paths routed" true
    (design.Physical.Physical_design.routing.Physical.Router.failures = []);
  check bool "length positive" true (len > 0);
  check bool "crossings bounded" true (crossings >= 0 && crossings <= len)

let test_retry_oracle () =
  let assay = Assays.Gene_expression.base () in
  let oracle =
    Cohls.Runtime.retry_oracle ~seed:11 ~success_probability:0.53 ~attempt_minutes:8 assay
  in
  let d = oracle 0 in
  check bool "multiple of attempt length, above minimum" true (d >= 8 && d mod 8 = 0);
  (* deterministic *)
  let oracle' =
    Cohls.Runtime.retry_oracle ~seed:11 ~success_probability:0.53 ~attempt_minutes:8 assay
  in
  check int_t "reproducible" d (oracle' 0);
  (* p = 1 always succeeds on the first attempt *)
  let sure =
    Cohls.Runtime.retry_oracle ~seed:1 ~success_probability:1.0 ~attempt_minutes:8 assay
  in
  check int_t "single attempt" 8 (sure 0);
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Runtime.retry_oracle: success_probability must be in (0, 1]")
    (fun () ->
      ignore
        (Cohls.Runtime.retry_oracle ~seed:1 ~success_probability:0.0
           ~attempt_minutes:8 assay
          : Cohls.Runtime.oracle))

let test_retry_oracle_in_executor () =
  let assay = Assays.Gene_expression.base () in
  let r = Cohls.Synthesis.run assay in
  let oracle =
    Cohls.Runtime.retry_oracle ~seed:3 ~success_probability:0.53 ~attempt_minutes:8 assay
  in
  match Cohls.Runtime.execute r.Cohls.Synthesis.final oracle with
  | Ok trace ->
    check bool "total at least fixed" true
      (trace.Cohls.Runtime.total_minutes
       >= Cohls.Schedule.total_fixed_minutes r.Cohls.Synthesis.final)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "physical"
    [
      ( "floorplan",
        [
          Alcotest.test_case "basic" `Quick test_floorplan_basic;
          Alcotest.test_case "empty" `Quick test_floorplan_empty;
          Alcotest.test_case "occupancy and ports" `Quick test_floorplan_occupancy_and_ports;
        ] );
      ( "router",
        [
          Alcotest.test_case "demo routes" `Quick test_routing_demo;
          Alcotest.test_case "hot path near-minimal" `Quick test_routing_hot_path_shorter;
        ] );
      ( "design",
        [
          Alcotest.test_case "of_schedule" `Quick test_design_of_schedule;
        ] );
      ( "retry-oracle",
        [
          Alcotest.test_case "geometric retries" `Quick test_retry_oracle;
          Alcotest.test_case "drives the executor" `Quick test_retry_oracle_in_executor;
        ] );
    ]
