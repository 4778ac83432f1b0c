(* Tests for the textual assay description language: lexing, parsing,
   errors with line numbers, and the print/parse round trip (unit cases
   plus a property over random assays). *)

open Microfluidics
module AT = Assay_text

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let str = Alcotest.string

let parse_ok source =
  match AT.parse source with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse failed: line %d: %s" e.AT.line e.AT.message

let parse_err source =
  match AT.parse source with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let sample =
  {|
# the paper's running example, abridged
assay "demo"

op capture {
  container   = chamber
  capacity    = tiny
  accessories = cell-trap, optical-system
  duration    = indeterminate min 8
}
op lyse { duration = 10 }
op mix {
  container   = ring
  accessories = pump
  duration    = 20
}

deps { capture -> lyse -> mix }
|}

let test_parse_sample () =
  let a = parse_ok sample in
  check str "name" "demo" (Assay.name a);
  check int_t "ops" 3 (Assay.operation_count a);
  check int_t "indeterminate" 1 (Assay.indeterminate_count a);
  let ops = Assay.operations a in
  check bool "capture is op 0" true (ops.(0).Operation.name = "capture");
  check bool "capture container" true
    (ops.(0).Operation.container = Some Components.Container.Chamber);
  check bool "capture accessories" true
    (Components.Accessory.Set.mem Components.Accessory.Cell_trap
       ops.(0).Operation.accessories);
  check int_t "lyse duration" 10 (Operation.min_duration ops.(1));
  check (Alcotest.list int_t) "chain" [ 1 ] (Assay.children a 0);
  check (Alcotest.list int_t) "chain2" [ 2 ] (Assay.children a 1)

let test_parse_replicate () =
  let a = parse_ok (sample ^ "\nreplicate 4\n") in
  check int_t "ops scaled" 12 (Assay.operation_count a);
  check int_t "indets scaled" 4 (Assay.indeterminate_count a)

let test_parse_multiple_deps_blocks () =
  let src =
    {|assay x
      op a { duration = 1 }
      op b { duration = 1 }
      op c { duration = 1 }
      deps { a -> b }
      deps { a -> c }|}
  in
  let a = parse_ok src in
  check (Alcotest.list int_t) "two children" [ 1; 2 ] (Assay.children a 0)

let test_parse_unquoted_name () =
  let a = parse_ok "assay my-assay\nop x { duration = 3 }" in
  check str "hyphenated name" "my-assay" (Assay.name a)

let expect_error ~line source =
  let e = parse_err source in
  check int_t ("error line of " ^ source) line e.AT.line

let test_errors () =
  expect_error ~line:1 "op x { duration = 0 }" (* non-positive duration *);
  expect_error ~line:2 "op x { duration = 5 }\nop x { duration = 5 }" (* dup *);
  expect_error ~line:3 "op a { duration = 1 }\nop b { duration = 1 }\ndeps { a -> zz }";
  expect_error ~line:1 "op a { durashun = 1 }";
  expect_error ~line:1 "op a { container = bowl duration = 1 }";
  expect_error ~line:1 "op a { accessories = laser duration = 1 }";
  expect_error ~line:1 "flurb";
  (* cycles *)
  expect_error ~line:4
    "op a { duration = 1 }\nop b { duration = 1 }\ndeps { a -> b }\ndeps { b -> a }";
  (* ring/tiny *)
  expect_error ~line:1 "op a { container = ring capacity = tiny duration = 1 }";
  (* empty *)
  expect_error ~line:1 "assay empty";
  (* unterminated string *)
  expect_error ~line:1 "assay \"oops";
  (* indeterminate without min *)
  expect_error ~line:1 "op a { duration = indeterminate 5 }";
  (* integer literals beyond int *)
  expect_error ~line:1 "op a { duration = 99999999999999999999999 }";
  expect_error ~line:2 "op a { duration = 1 }\nreplicate 99999999999999999999999"

let test_volume_field () =
  let a =
    parse_ok
      "op a { volume = 2.5 duration = 5 }\n\
       op b { volume = 50 duration = 5 }\n\
       op c { capacity = large container = ring volume = 1.0 duration = 5 }"
  in
  let ops = Assay.operations a in
  check bool "2.5 nl -> tiny" true
    (ops.(0).Operation.capacity = Some Components.Capacity.Tiny);
  check bool "50 nl -> medium" true
    (ops.(1).Operation.capacity = Some Components.Capacity.Medium);
  check bool "explicit capacity wins over volume" true
    (ops.(2).Operation.capacity = Some Components.Capacity.Large);
  (* out-of-range volume *)
  expect_error ~line:1 "op a { volume = 9999.0 duration = 5 }";
  (* a float duration is rejected *)
  expect_error ~line:1 "op a { duration = 5.5 }"

let test_comments_and_whitespace () =
  let a =
    parse_ok "  # leading comment\nassay t # trailing\nop a{duration=2}#end\n"
  in
  check int_t "one op" 1 (Assay.operation_count a)

let test_roundtrip_sample () =
  let a = parse_ok sample in
  let b = parse_ok (AT.to_text a) in
  check int_t "same op count" (Assay.operation_count a) (Assay.operation_count b);
  check int_t "same indets" (Assay.indeterminate_count a) (Assay.indeterminate_count b);
  let ga = Flowgraph.Digraph.edges (Assay.dependency_graph a) in
  let gb = Flowgraph.Digraph.edges (Assay.dependency_graph b) in
  check bool "same dependency structure" true (ga = gb)

let test_of_file () =
  let path = Filename.temp_file "assay" ".assay" in
  let oc = open_out path in
  output_string oc sample;
  close_out oc;
  (match AT.of_file path with
   | Ok a -> check int_t "parsed from file" 3 (Assay.operation_count a)
   | Error e -> Alcotest.failf "of_file failed: %s" e.AT.message);
  Sys.remove path

(* property: printing any random assay and re-parsing preserves structure *)
let prop_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(pair (int_range 1 99999) (int_range 1 25))
      ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
  in
  QCheck.Test.make ~name:"to_text/parse round trip on random assays" ~count:200 arb
    (fun (seed, n) ->
      let params =
        { Assays.Random_assay.default_params with Assays.Random_assay.op_count = n }
      in
      let a = Assays.Random_assay.generate ~seed params in
      match AT.parse (AT.to_text a) with
      | Error _ -> false
      | Ok b ->
        Assay.operation_count a = Assay.operation_count b
        && Flowgraph.Digraph.edges (Assay.dependency_graph a)
           = Flowgraph.Digraph.edges (Assay.dependency_graph b)
        && Array.for_all2
             (fun (x : Operation.t) (y : Operation.t) ->
               x.Operation.container = y.Operation.container
               && x.Operation.capacity = y.Operation.capacity
               && Components.Accessory.Set.equal x.Operation.accessories
                    y.Operation.accessories
               && x.Operation.duration = y.Operation.duration)
             (Assay.operations a) (Assay.operations b))

let test_parsed_assay_synthesises () =
  let a = parse_ok (sample ^ "\nreplicate 3\n") in
  let r = Cohls.Synthesis.run a in
  match Cohls.Schedule.validate r.Cohls.Synthesis.final with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "assay-text"
    [
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "replicate" `Quick test_parse_replicate;
          Alcotest.test_case "multiple deps blocks" `Quick test_parse_multiple_deps_blocks;
          Alcotest.test_case "unquoted name" `Quick test_parse_unquoted_name;
          Alcotest.test_case "errors with line numbers" `Quick test_errors;
          Alcotest.test_case "volume field" `Quick test_volume_field;
          Alcotest.test_case "comments/whitespace" `Quick test_comments_and_whitespace;
          Alcotest.test_case "of_file" `Quick test_of_file;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sample roundtrip" `Quick test_roundtrip_sample;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "parsed assay synthesises" `Quick
            test_parsed_assay_synthesises;
        ] );
    ]
