(* Tests for Algorithm 1: dependency-based allocation (Fig. 4),
   resource-based eviction via min-cut (Fig. 5), and the layering
   invariants on both the paper's assays and random DAGs. *)

open Microfluidics
module L = Cohls.Layering

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let int_list = Alcotest.(list int)

let det a name = Assay.add_operation a ~duration:(Operation.Fixed 5) name

let indet a name =
  Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 5 }) name

(* Equal layerings: same layer of every op, and per layer the same ops,
   indeterminate ops and stored transfers. *)
let same_layering (a : L.t) (b : L.t) =
  a.L.layer_of_op = b.L.layer_of_op
  && Array.length a.L.layers = Array.length b.L.layers
  && Array.for_all2
       (fun (x : L.layer) (y : L.layer) ->
         x.L.ops = y.L.ops && x.L.indeterminate = y.L.indeterminate
         && x.L.stored_transfers = y.L.stored_transfers)
       a.L.layers b.L.layers

(* ---------- dependency-based allocation ---------- *)

let test_single_layer_when_no_indet () =
  let a = Assay.create ~name:"det-only" in
  let x = det a "x" in
  let y = det a "y" in
  Assay.add_dependency a ~parent:x ~child:y;
  let l = L.compute a in
  check int_t "one layer" 1 (L.layer_count l);
  check int_list "all ops" [ x; y ] l.L.layers.(0).L.ops;
  check bool "check" true (L.check l = Ok ())

let test_indet_descendants_pushed () =
  (* i -> d: the descendant of an indeterminate op goes to the next layer *)
  let a = Assay.create ~name:"push" in
  let i = indet a "i" in
  let d = det a "d" in
  Assay.add_dependency a ~parent:i ~child:d;
  let l = L.compute a in
  check int_t "two layers" 2 (L.layer_count l);
  check int_list "layer0" [ i ] l.L.layers.(0).L.ops;
  check int_list "layer0 indets" [ i ] l.L.layers.(0).L.indeterminate;
  check int_list "layer1" [ d ] l.L.layers.(1).L.ops;
  check bool "check" true (L.check l = Ok ())

let test_fig4_style_selection () =
  (* Two indeterminate ops in a chain: only the one without an
     indeterminate ancestor joins the first layer. An unrelated determinate
     op stays in layer 0 (maximum-independent-set behaviour). *)
  let a = Assay.create ~name:"fig4" in
  let i1 = indet a "i1" in
  let mid = det a "mid" in
  let i2 = indet a "i2" in
  let free = det a "free" in
  Assay.add_dependency a ~parent:i1 ~child:mid;
  Assay.add_dependency a ~parent:mid ~child:i2;
  let l = L.compute a in
  check int_t "two layers" 2 (L.layer_count l);
  check int_list "layer0 keeps i1 and free op" [ i1; free ] l.L.layers.(0).L.ops;
  check int_list "layer1 gets the chain tail" [ mid; i2 ] l.L.layers.(1).L.ops;
  check int_list "i2 is layer1's indeterminate" [ i2 ] l.L.layers.(1).L.indeterminate;
  check bool "check" true (L.check l = Ok ())

let test_sibling_indets_share_layer () =
  (* Independent indeterminate ops run in parallel in one layer. *)
  let a = Assay.create ~name:"siblings" in
  let i1 = indet a "i1" in
  let i2 = indet a "i2" in
  let i3 = indet a "i3" in
  ignore (i1, i2, i3);
  let l = L.compute a in
  check int_t "one layer" 1 (L.layer_count l);
  check int_t "three indets" 3 (List.length l.L.layers.(0).L.indeterminate)

(* ---------- resource-based eviction (Fig. 5) ---------- *)

(* Fig. 5 selection: o1 (storage 1, moves nothing) is evicted before o3
   (storage 1, moves 2 ancestors) and before o2 (storage 2). *)
let fig5_assay () =
  let a = Assay.create ~name:"fig5" in
  let a1 = det a "a1" in
  let o1 = indet a "o1" in
  Assay.add_dependency a ~parent:a1 ~child:o1;
  let a2 = det a "a2" in
  let a3 = det a "a3" in
  let o2 = indet a "o2" in
  Assay.add_dependency a ~parent:a2 ~child:o2;
  Assay.add_dependency a ~parent:a3 ~child:o2;
  let a4 = det a "a4" in
  let a5 = det a "a5" in
  let o3 = indet a "o3" in
  Assay.add_dependency a ~parent:a4 ~child:a5;
  Assay.add_dependency a ~parent:a5 ~child:o3;
  Assay.add_dependency a ~parent:a4 ~child:o3;
  (a, o1, o2, o3)

let test_fig5_eviction_order () =
  let a, o1, o2, o3 = fig5_assay () in
  (* threshold 2: exactly one indeterminate op must leave; it must be o1
     (cheapest cut, fewest moved ancestors) *)
  let l = L.compute ~threshold:2 a in
  check bool "o1 evicted" true (l.L.layer_of_op.(o1) > 0);
  check int_t "o2 stays" 0 l.L.layer_of_op.(o2);
  check int_t "o3 stays" 0 l.L.layer_of_op.(o3);
  check bool "o1's ancestor stays (its output is stored)" true
    (l.L.layer_of_op.(o1) > 0);
  check bool "check" true (L.check l = Ok ())

let test_fig5_eviction_to_one () =
  let a, o1, o2, o3 = fig5_assay () in
  (* threshold 1: o1 goes first, then o3 (cut cost 1 via moving its
     ancestors beats o2's cost 2); o2 remains *)
  let l = L.compute ~threshold:1 a in
  check int_t "o2 is the survivor" 0 l.L.layer_of_op.(o2);
  check bool "o1 evicted" true (l.L.layer_of_op.(o1) > 0);
  check bool "o3 evicted" true (l.L.layer_of_op.(o3) > 0);
  check int_t "layer0 has exactly 1 indet" 1
    (List.length l.L.layers.(0).L.indeterminate);
  check bool "check" true (L.check l = Ok ())

let test_eviction_storage_recorded () =
  let a, o1, _, _ = fig5_assay () in
  let l = L.compute ~threshold:2 a in
  (* a1 stays in layer 0 while o1 moved: the a1 -> o1 transfer is stored *)
  let stored = l.L.layers.(0).L.stored_transfers in
  check bool "a1->o1 stored" true (List.exists (fun (_, c) -> c = o1) stored)

(* The first eviction (v, with y, c1, c2) removes part of w's closure but
   none of w's ancestors, so w stays a candidate whose eviction now moves 3
   operations instead of 7. With that count w beats z (cost 1, moves 5);
   evaluated against the layer before the first eviction it would not. *)
let test_eviction_refreshes_touched_candidates () =
  let a = Assay.create ~name:"refresh" in
  let dep parent child = Assay.add_dependency a ~parent ~child in
  let root = det a "a" in
  let b1 = det a "b1" and b2 = det a "b2" in
  let w = indet a "w" in
  List.iter (fun b -> dep root b; dep b w) [ b1; b2 ];
  let y = det a "y" in
  let c1 = det a "c1" and c2 = det a "c2" in
  let v = indet a "v" in
  dep root y;
  List.iter (fun c -> dep y c; dep c v) [ c1; c2 ];
  let r = det a "r" in
  let d1 = det a "d1" and d2 = det a "d2" in
  let z = indet a "z" in
  List.iter (fun d -> dep r d; dep d z) [ d1; d2 ];
  List.iter (fun name -> dep r (det a name)) [ "e1"; "e2" ];
  let p1 = det a "p1" and p2 = det a "p2" in
  let f = indet a "f" in
  List.iter (fun p -> dep p f) [ p1; p2 ];
  let l = L.compute ~threshold:2 a in
  check int_list "layer 0 keeps z and f" [ z; f ] l.L.layers.(0).L.indeterminate;
  check bool "v evicted" true (l.L.layer_of_op.(v) > 0);
  check bool "w evicted with its ancestors" true
    (List.for_all (fun u -> l.L.layer_of_op.(u) > 0) [ w; root; b1; b2 ]);
  check bool "same as the reference" true
    (same_layering l (Reference_layering.compute ~threshold:2 a))

let test_threshold_validation () =
  let a = Assay.create ~name:"t" in
  ignore (det a "x");
  Alcotest.check_raises "threshold 0"
    (Invalid_argument "Layering.compute: threshold must be >= 1") (fun () ->
      ignore (L.compute ~threshold:0 a))

(* ---------- paper test cases ---------- *)

let test_case2_structure () =
  let l = L.compute (Assays.Gene_expression.testcase ()) in
  check int_t "two layers" 2 (L.layer_count l);
  check int_t "layer0 = 10 captures" 10 (List.length l.L.layers.(0).L.ops);
  check int_t "layer0 all indet" 10 (List.length l.L.layers.(0).L.indeterminate);
  check int_t "layer1 = 60 det ops" 60 (List.length l.L.layers.(1).L.ops);
  check int_t "layer1 no indets" 0 (List.length l.L.layers.(1).L.indeterminate);
  check bool "check" true (L.check l = Ok ())

let test_case3_structure () =
  let l = L.compute (Assays.Rt_qpcr.testcase ()) in
  (* 20 indeterminate captures with threshold 10: three layers as in the
     paper's 603m+I1+I2 *)
  check int_t "three layers" 3 (L.layer_count l);
  check int_t "layer0 = 10 captures" 10 (List.length l.L.layers.(0).L.indeterminate);
  check int_t "layer1 = 10 captures" 10 (List.length l.L.layers.(1).L.indeterminate);
  check int_t "layer2 no indets" 0 (List.length l.L.layers.(2).L.indeterminate);
  check int_t "all 120 ops covered" 120
    (Array.fold_left (fun acc l -> acc + List.length l.L.ops) 0 l.L.layers);
  check bool "check" true (L.check l = Ok ())

let test_case1_single_layer () =
  let l = L.compute (Assays.Kinase.testcase ()) in
  check int_t "one layer (no indets)" 1 (L.layer_count l);
  check bool "check" true (L.check l = Ok ())

let test_threshold_sweep_case3 () =
  (* a smaller threshold forces more layers, never fewer *)
  let a = Assays.Rt_qpcr.testcase () in
  let counts =
    List.map (fun t -> L.layer_count (L.compute ~threshold:t a)) [ 2; 5; 10; 20 ]
  in
  (match counts with
   | [ c2; c5; c10; c20 ] ->
     check bool "monotone" true (c2 >= c5 && c5 >= c10 && c10 >= c20);
     check int_t "threshold 20 gives 2 layers" 2 c20
   | _ -> Alcotest.fail "unexpected");
  List.iter
    (fun t -> check bool "valid" true (L.check (L.compute ~threshold:t a) = Ok ()))
    [ 2; 5; 10; 20 ]

(* ---------- properties on random assays ---------- *)

let arb_assay =
  QCheck.make
    QCheck.Gen.(
      pair (int_range 1 99999) (int_range 2 40) >>= fun (seed, n) ->
      float_range 0.0 0.5 >>= fun indet_frac ->
      return (seed, n, indet_frac))
    ~print:(fun (seed, n, f) -> Printf.sprintf "seed=%d n=%d indet=%.2f" seed n f)

let layering_of (seed, n, indet_frac) =
  let params =
    { Assays.Random_assay.default_params with
      Assays.Random_assay.op_count = n;
      indeterminate_fraction = indet_frac }
  in
  let a = Assays.Random_assay.generate ~seed params in
  (a, L.compute ~threshold:3 a)

let prop_layering_invariants =
  QCheck.Test.make ~name:"layering invariants on random assays" ~count:200 arb_assay
    (fun spec ->
      let _, l = layering_of spec in
      L.check ~strict:false l = Ok ())

let prop_layering_partitions =
  QCheck.Test.make ~name:"layers partition the operation set" ~count:200 arb_assay
    (fun spec ->
      let a, l = layering_of spec in
      let n = Assay.operation_count a in
      let covered =
        Array.fold_left (fun acc lay -> acc + List.length lay.L.ops) 0 l.L.layers
      in
      covered = n && Array.for_all (fun x -> x >= 0) l.L.layer_of_op)

let prop_indet_descendants_later =
  QCheck.Test.make ~name:"descendants of indeterminate ops are strictly later"
    ~count:200 arb_assay (fun spec ->
      let a, l = layering_of spec in
      let g = Assay.dependency_graph a in
      let ops = Assay.operations a in
      let ok = ref true in
      Flowgraph.Digraph.iter_edges
        (fun u v ->
          if Operation.is_indeterminate ops.(u) && l.L.layer_of_op.(u) >= l.L.layer_of_op.(v)
          then ok := false)
        g;
      !ok)

let prop_deterministic =
  QCheck.Test.make ~name:"layering is deterministic" ~count:50 arb_assay (fun spec ->
      let _, l1 = layering_of spec in
      let _, l2 = layering_of spec in
      Array.for_all2
        (fun (a : L.layer) (b : L.layer) -> a.L.ops = b.L.ops)
        l1.L.layers l2.L.layers)

(* ---------- agreement with the reference implementation ---------- *)

(* The reference runs phase 1 round by round in a given pick order; the
   library has no order to give, and must match the reference under the
   smallest-id order and under seeded pseudo-random ones alike. *)

let choice_to_string = function
  | Reference_layering.Smallest_id -> "smallest-id"
  | Reference_layering.Seeded s -> Printf.sprintf "seeded %d" s

(* The same assay with its ids reversed: every parent then has a larger id
   than its child, as a textual assay may number them. *)
let reverse_ids a =
  let n = Assay.operation_count a in
  let flip = n - 1 in
  Assay.derive ~name:(Assay.name a)
    (Array.init n (fun i -> Assay.operation a (flip - i)))
    (Flowgraph.Digraph.of_edges n
       (List.map (fun (p, c) -> (flip - p, flip - c))
          (Flowgraph.Digraph.edges (Assay.dependency_graph a))))

let arb_oracle_case =
  QCheck.make
    QCheck.Gen.(
      int_range 1 99999 >>= fun seed ->
      int_range 2 60 >>= fun n ->
      float_range 0.0 0.6 >>= fun indet_frac ->
      oneofl [ 0.03; 0.08; 0.15; 0.3; 0.5 ] >>= fun edge_p ->
      int_range 1 5 >>= fun threshold ->
      oneof
        [
          return Reference_layering.Smallest_id;
          map (fun s -> Reference_layering.Seeded s) (int_range 0 999);
        ]
      >>= fun choice ->
      bool >>= fun reversed ->
      return (seed, n, indet_frac, edge_p, threshold, choice, reversed))
    ~print:(fun (seed, n, f, p, t, c, r) ->
      Printf.sprintf "seed=%d n=%d indet=%.2f edges=%.2f threshold=%d %s reversed=%b"
        seed n f p t (choice_to_string c) r)

let prop_matches_reference =
  QCheck.Test.make ~name:"layering equals the reference implementation" ~count:600
    arb_oracle_case
    (fun (seed, n, indet_frac, edge_p, threshold, choice, reversed) ->
      let params =
        { Assays.Random_assay.default_params with
          Assays.Random_assay.op_count = n;
          indeterminate_fraction = indet_frac;
          edge_probability = edge_p }
      in
      let a = Assays.Random_assay.generate ~seed params in
      let a = if reversed then reverse_ids a else a in
      same_layering (L.compute ~threshold a)
        (Reference_layering.compute ~threshold ~choice a))

let check_against_reference label a thresholds =
  List.iter
    (fun threshold ->
      List.iter
        (fun choice ->
          let name =
            Printf.sprintf "%s threshold %d %s" label threshold
              (choice_to_string choice)
          in
          check bool name true
            (same_layering (L.compute ~threshold a)
               (Reference_layering.compute ~threshold ~choice a)))
        [ Reference_layering.Smallest_id; Reference_layering.Seeded 7 ])
    thresholds

let test_paper_assays_match_reference () =
  List.iter
    (fun (label, a) -> check_against_reference label a [ 1; 2; 3; 5; 10; 20 ])
    [
      ("kinase", Assays.Kinase.testcase ());
      ("gene-expression", Assays.Gene_expression.testcase ());
      ("rt-qpcr", Assays.Rt_qpcr.testcase ());
      ("mda", Assays.Mda.testcase ());
    ]

let test_replicated_match_reference () =
  let replicated base copies = Assay.replicate (base ()) ~copies in
  List.iter
    (fun k ->
      check_against_reference (Printf.sprintf "gene-expression x%d" k)
        (replicated Assays.Gene_expression.base k) [ 3 ])
    [ 1; 2; 5; 17; 40 ];
  List.iter
    (fun k ->
      check_against_reference (Printf.sprintf "rt-qpcr x%d" k)
        (replicated Assays.Rt_qpcr.base k) [ 3 ])
    [ 1; 3; 8 ]

(* Each eviction invalidates only the candidates whose cut or closure it
   touches, so on independent protocol copies the cuts computed stay within
   one per selected operation plus one per eviction. Recomputing every
   candidate after every eviction runs about twenty times that. *)
let test_cut_count_guard () =
  let a = Assay.replicate (Assays.Gene_expression.base ()) ~copies:40 in
  Telemetry.reset ();
  Telemetry.enable ();
  let l =
    Fun.protect ~finally:Telemetry.disable (fun () -> L.compute ~threshold:10 a)
  in
  let counter = Telemetry.counter_value in
  let reference = Reference_layering.compute ~threshold:10 a in
  check bool "same layering as the reference" true (same_layering l reference);
  check int_t "evictions equal the reference's" !Reference_layering.evictions
    (counter "layering.evictions");
  check int_t "layers equal the reference's" (L.layer_count reference)
    (counter "layering.layers");
  let cuts = counter "layering.min_cuts" in
  let bound = counter "layering.mis_selected" + counter "layering.evictions" in
  check bool
    (Printf.sprintf "min cuts %d <= mis_selected + evictions %d" cuts bound)
    true (cuts <= bound);
  check bool "some candidate evaluations served by the cache" true
    (counter "layering.cut_cache_hits" > 0);
  Telemetry.reset ()

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "layering"
    [
      ( "dependency-based",
        [
          Alcotest.test_case "single layer without indets" `Quick
            test_single_layer_when_no_indet;
          Alcotest.test_case "indet descendants pushed" `Quick
            test_indet_descendants_pushed;
          Alcotest.test_case "Fig. 4 selection" `Quick test_fig4_style_selection;
          Alcotest.test_case "sibling indets share layer" `Quick
            test_sibling_indets_share_layer;
        ] );
      ( "resource-based",
        [
          Alcotest.test_case "Fig. 5 eviction order" `Quick test_fig5_eviction_order;
          Alcotest.test_case "Fig. 5 eviction to one" `Quick test_fig5_eviction_to_one;
          Alcotest.test_case "stored transfers recorded" `Quick
            test_eviction_storage_recorded;
          Alcotest.test_case "eviction refreshes touched candidates" `Quick
            test_eviction_refreshes_touched_candidates;
          Alcotest.test_case "threshold validation" `Quick test_threshold_validation;
        ] );
      ( "paper-cases",
        [
          Alcotest.test_case "case 1: single layer" `Quick test_case1_single_layer;
          Alcotest.test_case "case 2: 10+60" `Quick test_case2_structure;
          Alcotest.test_case "case 3: 3 layers" `Quick test_case3_structure;
          Alcotest.test_case "threshold sweep" `Quick test_threshold_sweep_case3;
        ] );
      ( "props",
        qsuite
          [
            prop_layering_invariants;
            prop_layering_partitions;
            prop_indet_descendants_later;
            prop_deterministic;
          ] );
      ( "reference",
        Alcotest.test_case "paper assays, thresholds 1-20" `Quick
          test_paper_assays_match_reference
        :: Alcotest.test_case "replicated gene-expression and rt-qpcr" `Quick
             test_replicated_match_reference
        :: Alcotest.test_case "cut count guard on gene-expression x40" `Quick
             test_cut_count_guard
        :: qsuite [ prop_matches_reference ] );
    ]
