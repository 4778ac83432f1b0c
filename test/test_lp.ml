(* Tests for the from-scratch LP/MILP solver: linear expressions, the model
   builder, the simplex kernel (against an exact reference), presolve and
   branch-and-bound. *)

module Q = Numeric.Rat
module E = Lp.Linexpr
module M = Lp.Model
module S = Lp.Simplex
module BB = Lp.Branch_bound

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let str = Alcotest.string
let flt = Alcotest.float 1e-6

(* ---------- Linexpr ---------- *)

let test_linexpr_basic () =
  let e = E.add (E.iterm 2 0) (E.iterm 3 1) in
  check str "coeff x0" "2" (Q.to_string (E.coeff e 0));
  check str "coeff x1" "3" (Q.to_string (E.coeff e 1));
  check str "coeff x9" "0" (Q.to_string (E.coeff e 9));
  check int_t "terms" 2 (List.length (E.terms e));
  check int_t "max var" 1 (E.max_var e);
  check bool "not constant" false (E.is_constant e);
  check bool "zero constant" true (E.is_constant E.zero)

let test_linexpr_cancellation () =
  let e = E.add (E.iterm 2 0) (E.iterm (-2) 0) in
  check bool "cancelled term disappears" true (E.is_constant e);
  check int_t "max var of cancelled" (-1) (E.max_var e)

let test_linexpr_eval () =
  let e = E.add_constant (E.add (E.iterm 2 0) (E.iterm 3 1)) (Q.of_int 7) in
  let value v = Q.of_int (if v = 0 then 10 else 1) in
  check str "eval" "30" (Q.to_string (E.eval value e));
  check flt "eval_float" 30.0 (E.eval_float (fun v -> if v = 0 then 10.0 else 1.0) e)

let test_linexpr_scale_map () =
  let e = E.scale_int 3 (E.add (E.var 0) (E.of_int 2)) in
  check str "scaled coeff" "3" (Q.to_string (E.coeff e 0));
  check str "scaled const" "6" (Q.to_string (E.const_part e))

(* ---------- Model ---------- *)

let test_model_basics () =
  let m = M.create ~name:"t" () in
  let x = M.add_var m "x" in
  let y = M.add_var m ~kind:M.Binary "y" in
  check int_t "vars" 2 (M.var_count m);
  check str "name" "x" (M.var_name m x);
  check bool "binary is integer" true (M.is_integer_var m y);
  check bool "continuous is not" false (M.is_integer_var m x);
  check bool "binary ub" true (M.var_ub m y = Some Q.one);
  M.add_constr m (E.var x) M.Le (E.of_int 5);
  check int_t "constraints" 1 (M.constr_count m);
  (* constants folded to the rhs *)
  M.add_constr m (E.add (E.var x) (E.of_int 3)) M.Le (E.of_int 5);
  (match M.constraints m with
   | [ _; (_, _, _, rhs) ] -> check str "folded rhs" "2" (Q.to_string rhs)
   | _ -> Alcotest.fail "expected two constraints")

let test_model_unknown_var () =
  let m = M.create () in
  Alcotest.check_raises "constr with unknown var"
    (Invalid_argument "Model.add_constr: expression uses unknown variable")
    (fun () -> M.add_constr m (E.var 3) M.Le (E.of_int 1))

let test_model_check_feasible () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "x" in
  M.add_constr m (E.var x) M.Ge (E.of_int 2);
  check int_t "feasible" 0 (List.length (M.check_feasible m (fun _ -> 3.0)));
  check bool "bound violation detected" true
    (List.length (M.check_feasible m (fun _ -> 11.0)) > 0);
  check bool "constraint violation detected" true
    (List.length (M.check_feasible m (fun _ -> 1.0)) > 0);
  check bool "integrality violation detected" true
    (List.length (M.check_feasible m (fun _ -> 2.5)) > 0)

(* A point just outside a bound passes the float check at the
   branch-and-bound tolerance and fails the exact certificate. *)
let test_model_check_feasible_exact () =
  let m = M.create () in
  let x = M.add_var m ~ub:Q.one "x" in
  let n = M.add_var m ~kind:M.Integer "n" in
  M.add_constr m (E.add (E.var x) (E.var n)) M.Le (E.of_int 3);
  let over = 1.0 +. 5e-6 in
  let at = function 0 -> over | _ -> 2.0 in
  check int_t "float check at 1e-5 passes" 0
    (List.length (M.check_feasible m ~tol:1e-5 at));
  let exact v = Q.of_float_approx (at v) in
  check (Alcotest.list str) "exact check flags bound and row" [ "c0"; "x:ub" ]
    (List.map fst (M.check_feasible_exact m exact));
  check int_t "exact check accepts a feasible point" 0
    (List.length (M.check_feasible_exact m (fun v -> Q.of_int (if v = x then 1 else 2))));
  check (Alcotest.list str) "exact integrality" [ "n:int" ]
    (List.map fst
       (M.check_feasible_exact m (fun v -> if v = n then Q.of_ints 3 2 else Q.zero)))

(* ---------- Simplex ---------- *)

let wyndor () =
  let m = M.create ~name:"wyndor" () in
  let x = M.add_var m "x" in
  let y = M.add_var m "y" in
  M.add_constr m (E.var x) M.Le (E.of_int 4);
  M.add_constr m (E.iterm 2 y) M.Le (E.of_int 12);
  M.add_constr m (E.add (E.iterm 3 x) (E.iterm 2 y)) M.Le (E.of_int 18);
  M.set_objective m `Maximize (E.add (E.iterm 3 x) (E.iterm 5 y));
  (m, x, y)

let test_simplex_optimal () =
  let m, x, y = wyndor () in
  (match S.solve_relaxation_float m with
   | S.Optimal { objective; values; _ } ->
     check flt "objective" 36.0 objective;
     check flt "x" 2.0 values.(x);
     check flt "y" 6.0 values.(y)
   | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal");
  match Rational_simplex.solve m with
  | Rational_simplex.Optimal { objective; values } ->
    check str "exact objective" "36" (Q.to_string objective);
    check str "exact x" "2" (Q.to_string values.(x));
    check str "exact y" "6" (Q.to_string values.(y))
  | Rational_simplex.Infeasible | Rational_simplex.Unbounded ->
    Alcotest.fail "expected optimal (exact)"

let test_simplex_infeasible () =
  let m = M.create () in
  let x = M.add_var m "x" in
  M.add_constr m (E.var x) M.Ge (E.of_int 5);
  M.add_constr m (E.var x) M.Le (E.of_int 2);
  (match S.solve_relaxation_float m with
   | S.Infeasible -> ()
   | S.Optimal _ | S.Unbounded -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let m = M.create () in
  let x = M.add_var m "x" in
  M.set_objective m `Maximize (E.var x);
  (match S.solve_relaxation_float m with
   | S.Unbounded -> ()
   | S.Optimal _ | S.Infeasible -> Alcotest.fail "expected unbounded")

let test_simplex_equality_and_free () =
  (* min x + y st x + y = 10, x - y = 4, x, y >= -100 -> x=7 y=3: equality
     rows over variables shifted by a negative lower bound *)
  let m = M.create () in
  let x = M.add_var m ~lb:(Q.of_int (-100)) "x" in
  let y = M.add_var m ~lb:(Q.of_int (-100)) "y" in
  M.add_constr m (E.add (E.var x) (E.var y)) M.Eq (E.of_int 10);
  M.add_constr m (E.sub (E.var x) (E.var y)) M.Eq (E.of_int 4);
  M.set_objective m `Minimize (E.add (E.var x) (E.var y));
  match S.solve_relaxation_float m with
  | S.Optimal { objective; values; _ } ->
    check flt "objective" 10.0 objective;
    check flt "x" 7.0 values.(x);
    check flt "y" 3.0 values.(y)
  | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal"

let test_simplex_negative_bounds () =
  (* min x st x >= -5 -> -5 *)
  let m = M.create () in
  let x = M.add_var m ~lb:(Q.of_int (-5)) "x" in
  M.set_objective m `Minimize (E.var x);
  (match S.solve_relaxation_float m with
   | S.Optimal { objective; _ } -> check flt "objective" (-5.0) objective
   | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal");
  (* max y st -10 <= y <= -2 *)
  let m2 = M.create () in
  let y = M.add_var m2 ~lb:(Q.of_int (-10)) ~ub:(Q.of_int (-2)) "y" in
  M.set_objective m2 `Maximize (E.var y);
  match S.solve_relaxation_float m2 with
  | S.Optimal { objective; _ } -> check flt "negative box" (-2.0) objective
  | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal"

let test_simplex_fixed_var () =
  let m = M.create () in
  let x = M.add_var m ~lb:(Q.of_int 3) ~ub:(Q.of_int 3) "x" in
  let y = M.add_var m ~ub:(Q.of_int 10) "y" in
  M.add_constr m (E.add (E.var x) (E.var y)) M.Le (E.of_int 8);
  M.set_objective m `Maximize (E.add (E.var x) (E.var y));
  match S.solve_relaxation_float m with
  | S.Optimal { objective; values; _ } ->
    check flt "objective" 8.0 objective;
    check flt "fixed" 3.0 values.(x)
  | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal"

let test_simplex_crossed_bounds () =
  let m = M.create () in
  let _ = M.add_var m ~lb:(Q.of_int 5) ~ub:(Q.of_int 2) "x" in
  match S.solve_relaxation_float m with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded -> Alcotest.fail "expected infeasible"

let test_simplex_degenerate () =
  (* Classic cycling-prone instance (Beale); Bland fallback must terminate. *)
  let m = M.create () in
  let x = Array.init 4 (fun i -> M.add_var m (Printf.sprintf "x%d" i)) in
  let c q v = E.term (Q.of_float_approx q) v in
  M.add_constr m
    (E.sum [ c 0.25 x.(0); c (-8.0) x.(1); c (-1.0) x.(2); c 9.0 x.(3) ])
    M.Le E.zero;
  M.add_constr m
    (E.sum [ c 0.5 x.(0); c (-12.0) x.(1); c (-0.5) x.(2); c 3.0 x.(3) ])
    M.Le E.zero;
  M.add_constr m (E.var x.(2)) M.Le (E.of_int 1);
  M.set_objective m `Maximize
    (E.sum [ c 0.75 x.(0); c (-20.0) x.(1); c 0.5 x.(2); c (-6.0) x.(3) ]);
  match S.solve_relaxation_float m with
  | S.Optimal { objective; _ } -> check flt "beale optimum" 1.25 objective
  | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal"

(* Random small LPs for the kernel-vs-reference property: per-variable
   bounds of every shape the driver maps differently (boxed, fixed,
   negative lower bound, lower bound only), rows of every sense with
   right-hand sides of either sign, either objective direction — so
   infeasible and unbounded instances occur alongside optimal ones. *)
type lp_spec = {
  var_bounds : (int * int option) list;
  rows : (int list * M.sense * int) list;
  obj : int list;
  maximize : bool;
}

let build_lp spec =
  let m = M.create () in
  let xs =
    Array.of_list
      (List.mapi
         (fun i (lb, ub) ->
           M.add_var m ~lb:(Q.of_int lb) ?ub:(Option.map Q.of_int ub)
             (Printf.sprintf "x%d" i))
         spec.var_bounds)
  in
  let expr cs = E.sum (List.mapi (fun i c -> E.iterm c xs.(i)) cs) in
  List.iter (fun (cs, sense, b) -> M.add_constr m (expr cs) sense (E.of_int b)) spec.rows;
  M.set_objective m (if spec.maximize then `Maximize else `Minimize) (expr spec.obj);
  m

let show_lp spec = Format.asprintf "%a" M.pp (build_lp spec)

let gen_lp ?(vars = (1, 4)) ?(rows = (1, 5)) ~var_bound ~row_sense ~rhs ~maximize () =
  QCheck.Gen.(
    int_range (fst vars) (snd vars) >>= fun nvars ->
    int_range (fst rows) (snd rows) >>= fun nrows ->
    let coeff = int_range (-5) 5 in
    list_size (return nvars) var_bound >>= fun var_bounds ->
    list_size (return nrows)
      (triple (list_size (return nvars) coeff) row_sense rhs)
    >>= fun rows ->
    list_size (return nvars) coeff >>= fun obj ->
    maximize >>= fun maximize -> return { var_bounds; rows; obj; maximize })

let gen_mixed_lp =
  let var_bound =
    QCheck.Gen.(
      int_range (-10) 5 >>= fun lb ->
      int_range 0 20 >>= fun span ->
      frequency
        [
          (3, return (0, Some 50));
          (2, return (lb, Some (lb + span)));
          (2, return (lb, None));
        ])
  in
  let row_sense = QCheck.Gen.frequencyl [ (2, M.Le); (2, M.Ge); (1, M.Eq) ] in
  gen_lp ~var_bound ~row_sense ~rhs:(QCheck.Gen.int_range (-20) 20)
    ~maximize:QCheck.Gen.bool ()

let arb_lp = QCheck.make ~print:show_lp gen_mixed_lp

let prop_exact_matches_float =
  QCheck.Test.make ~name:"exact and float simplex agree" ~count:150 arb_lp (fun spec ->
      let m = build_lp spec in
      match (S.solve_relaxation_float m, Rational_simplex.solve m) with
      | S.Optimal { objective = f; _ }, Rational_simplex.Optimal { objective = q; _ } ->
        Float.abs (f -. Q.to_float q) < 1e-6
      | S.Infeasible, Rational_simplex.Infeasible
      | S.Unbounded, Rational_simplex.Unbounded -> true
      | _, _ -> false)

(* [f ()] under fresh telemetry, whose counters stay readable with
   [Telemetry.counter_value] until the next reset. *)
let under_fresh_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable f

(* A node of an [arb_lp] model: one to three branchings [(var, lb, ub)],
   newest first, that fix a variable (the model's fixed ones included),
   box it anew or leave it without an upper bound. A variable may be
   branched twice, the newest winning. New lower bounds reach 10, so a
   node's shifted rhs often changes sign against the form's. *)
let arb_held_node =
  let gen =
    QCheck.Gen.(
      gen_mixed_lp >>= fun spec ->
      let change =
        int_range 0 (List.length spec.var_bounds - 1) >>= fun v ->
        int_range (-10) 10 >>= fun lb ->
        frequency
          [
            (2, return (Some lb));
            (3, map (fun span -> Some (lb + span)) (int_range 1 15));
            (1, return None);
          ]
        >>= fun ub -> return (v, lb, ub)
      in
      list_size (int_range 1 3) change >>= fun changes -> return (spec, changes))
  in
  QCheck.make gen ~print:(fun (spec, changes) ->
      Printf.sprintf "%s branchings %s" (show_lp spec)
        (String.concat ", "
           (List.map
              (fun (v, l, u) ->
                Printf.sprintf "x%d in [%d, %s]" v l
                  (match u with Some u -> string_of_int u | None -> "inf"))
              changes)))

(* A node solved cold on the form its model was translated into, its
   branchings reaching the kernel as changed columns, matches a fresh
   translation of the model under the node's bounds: the same status and
   an objective within 1e-9 relative. A row whose shifted rhs is negative
   at the node but not in the form gets a negated artificial, so the solve
   walks the fresh translation's pivots, phase 1's included. The one
   exception is a row the form negated (its rhs was negative there) whose
   rhs is zero at the node: the fresh translation keeps that row as it is,
   and may pivot differently. *)
let prop_held_form_matches_translation =
  QCheck.Test.make
    ~name:"a cold solve of a held form under changes matches a fresh translation"
    ~count:300 arb_held_node (fun (spec, changes) ->
      let m = build_lp spec in
      let root = Array.of_list spec.var_bounds in
      let node = Array.copy root in
      List.iter (fun (v, l, u) -> node.(v) <- (l, u)) (List.rev changes);
      let counted solve =
        let r = under_fresh_telemetry solve in
        ( r,
          Telemetry.counter_value "lp.simplex.pivots",
          Telemetry.counter_value "lp.simplex.phase1_pivots" )
      in
      let f = S.form m in
      let branchings =
        List.map (fun (v, l, u) -> (v, Q.of_int l, Option.map Q.of_int u)) changes
      in
      let held, pivots, phase1 = counted (fun () -> S.solve f branchings) in
      let bounds = Array.map (fun (l, u) -> (Q.of_int l, Option.map Q.of_int u)) node in
      let fresh, pivots', phase1' =
        counted (fun () -> S.solve_relaxation_float ~bounds m)
      in
      let shifted_rhs bounds (cs, _, rhs) =
        List.fold_left2 (fun r c (l, _) -> r - (c * l)) rhs cs (Array.to_list bounds)
      in
      let zero_row_negated =
        List.exists
          (fun row -> shifted_rhs root row < 0 && shifted_rhs node row = 0)
          spec.rows
      in
      (match (held, fresh) with
       | S.Optimal { objective = a; _ }, S.Optimal { objective = b; _ } ->
         Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)
       | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
       | _, _ -> false)
      && (zero_row_negated || (pivots = pivots' && phase1 = phase1')))

(* A warm dual re-solve after a bound change must land on the same optimum
   as a cold solve of the changed model. Rows are [<= b] with [b >= 0] and
   variables live in [0, 50], so the origin stays feasible under any
   tightened upper bound and the root solve is always [Optimal]; a raised
   lower bound may make the changed model infeasible. *)
let arb_lp_rebound =
  let gen =
    QCheck.Gen.(
      gen_lp ~var_bound:(return (0, Some 50)) ~row_sense:(return M.Le)
        ~rhs:(int_range 0 20) ~maximize:(return true) ()
      >>= fun spec ->
      int_range 0 (List.length spec.var_bounds - 1) >>= fun vi ->
      int_range 0 50 >>= fun new_ub -> return (spec, vi, new_ub))
  in
  QCheck.make gen ~print:(fun (spec, vi, new_ub) ->
      Printf.sprintf "%s change x%d.ub=%d" (show_lp spec) vi new_ub)

let prop_warm_resolve_matches_cold =
  QCheck.Test.make ~name:"warm dual re-solve matches cold optimum" ~count:150
    arb_lp_rebound (fun (spec, vi, k) ->
      let m = build_lp spec in
      let f = S.form m in
      match S.solve f [] with
      | S.Infeasible | S.Unbounded -> false (* the box forbids both *)
      | S.Optimal { warm; _ } ->
        let bounds lb ub =
          Array.init (M.var_count m) (fun i ->
              if i = vi then (Q.of_int lb, Some (Q.of_int ub))
              else (Q.zero, Some (Q.of_int 50)))
        in
        (* one warm value, the optimal basis of the unchanged model, warms
           both bound changes: each re-solve exercises the dual repair path
           and must leave the value intact for the other *)
        let agrees lb ub =
          match
            ( S.solve ~warm f [ (vi, Q.of_int lb, Some (Q.of_int ub)) ],
              S.solve_relaxation_float ~bounds:(bounds lb ub) m )
          with
          | S.Optimal { objective = w; _ }, S.Optimal { objective = c; _ } ->
            Float.abs (w -. c) < 1e-6
          | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
          | _, _ -> false
        in
        agrees 0 k && agrees k 50)

(* A chain of three bound changes, root -> child -> grandchild -> great-
   grandchild, each level re-solved warm from the level above and compared
   with a cold solve of the same bounds. Warming each level from the last
   one's basis runs the dual phase from successive snapshots. A level is
   its branching consed onto the level above's, so a variable branched
   twice pins the newest bound winning over the older. The models
   are larger than [arb_lp_rebound]'s so that a re-solve takes several dual
   pivots, which the reduced costs the dual phase carries across them must
   survive: the dual phase keeps the basis dual feasible, so a warm hit
   must end with no primal polish pivot. A wrong update still reaches the
   optimum through the polish, so only that count shows it. The one
   exception is a level that widens a column the level above fixed: a
   zero-span column never enters, so its reduced cost is not kept dual
   feasible, and once unfixed it may rightly take a polish pivot. Such a
   level is still held to the cold objective and status. The chain ends
   early at a level without an optimum. *)
let arb_lp_chain =
  let gen =
    QCheck.Gen.(
      gen_lp ~vars:(6, 14) ~rows:(4, 10) ~var_bound:(return (0, Some 50))
        ~row_sense:(return M.Le) ~rhs:(int_range 0 40) ~maximize:(return true) ()
      >>= fun spec ->
      let change =
        triple (int_range 0 (List.length spec.var_bounds - 1)) bool (int_range 0 50)
      in
      list_size (return 3) change >>= fun changes -> return (spec, changes))
  in
  QCheck.make gen ~print:(fun (spec, changes) ->
      Printf.sprintf "%s changes %s" (show_lp spec)
        (String.concat ", "
           (List.map
              (fun (vi, up, k) -> Printf.sprintf "x%d.%s=%d" vi (if up then "lb" else "ub") k)
              changes)))

let warm_chain_matches_cold ~name =
  QCheck.Test.make ~name ~count:150 arb_lp_chain (fun (spec, changes) ->
      let m = build_lp spec in
      (* the re-solve, and whether it was a warm hit that needed the primal
         polish *)
      let f = S.form m in
      let warm_solve ~warm branchings =
        let r = under_fresh_telemetry (fun () -> S.solve ~warm f branchings) in
        ( r,
          Telemetry.counter_value "lp.bb.warm_hits" = 1
          && Telemetry.counter_value "lp.simplex.pivots" > 0 )
      in
      (* [bounds] is the level's bound vector for the cold reference,
         [branchings] the same level as the warm re-solve sees it *)
      let rec descend warm bounds branchings = function
        | [] -> true
        | (vi, up, k) :: rest -> (
          let bounds = Array.copy bounds in
          let lb, ub = bounds.(vi) in
          bounds.(vi) <- (if up then (Q.of_int k, ub) else (lb, Some (Q.of_int k)));
          let unfixes =
            (match ub with Some u -> Q.equal u lb | None -> false)
            &&
            match bounds.(vi) with
            | l, Some u -> Q.compare l u < 0
            | _, None -> true
          in
          let branchings = (vi, fst bounds.(vi), snd bounds.(vi)) :: branchings in
          let warm_r, polished = warm_solve ~warm branchings in
          (unfixes || not polished)
          &&
          match (warm_r, S.solve_relaxation_float ~bounds m) with
          | S.Optimal { objective = w; warm; _ }, S.Optimal { objective = c; _ } ->
            Float.abs (w -. c) < 1e-6 && descend warm bounds branchings rest
          | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
          | _, _ -> false)
      in
      match S.solve f [] with
      | S.Infeasible | S.Unbounded -> false (* the box forbids both *)
      | S.Optimal { warm; _ } ->
        let box = Array.make (M.var_count m) (Q.zero, Some (Q.of_int 50)) in
        descend warm box [] changes)

let prop_warm_chain_matches_cold =
  warm_chain_matches_cold ~name:"warm re-solve chain matches cold at every level"

(* The seed whose chain x2.ub=0, x4.lb=46, x2.ub=7 unfixes a column and
   takes a legitimate polish pivot there. *)
let test_warm_chain_regression_seed =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 200428684 |])
    (warm_chain_matches_cold ~name:"warm re-solve chain, seed 200428684")

(* Kernel form of an [arb_lp_rebound] model: [x_j] in [0, 50] as column
   bounds, one slack column per [<=] row, the maximisation negated. *)
let kernel_form spec =
  let nv = List.length spec.var_bounds in
  let rows = Array.of_list spec.rows in
  let m = Array.length rows in
  let cols =
    Array.init (nv + m) (fun j ->
        if j >= nv then [| (j - nv, 1.0) |]
        else
          Array.of_list
            (List.filter_map
               (fun i ->
                 let cs, _, _ = rows.(i) in
                 let a = List.nth cs j in
                 if a = 0 then None else Some (i, float_of_int a))
               (List.init m Fun.id)))
  in
  let b = Array.map (fun (_, _, rhs) -> float_of_int rhs) rows in
  let c =
    Array.init (nv + m) (fun j ->
        if j < nv then -.float_of_int (List.nth spec.obj j) else 0.0)
  in
  let ubs = Array.init (nv + m) (fun j -> if j < nv then 50.0 else infinity) in
  Lp.Tableau.columns ~b ~c ~ubs cols

(* A store over [cols] with no rhs, costs or upper bounds. *)
let bare_columns ~nrows cols =
  let n = Array.length cols in
  Lp.Tableau.columns ~b:(Array.make nrows 0.0) ~c:(Array.make n 0.0)
    ~ubs:(Array.make n infinity) cols

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_resolve r1 r2 =
  let module T = Lp.Tableau in
  match (r1, r2) with
  | T.Optimal { value = v1; x = x1; snapshot = s1 }, T.Optimal { value = v2; x = x2; snapshot = s2 }
    ->
    bits_equal v1 v2
    && Array.length x1 = Array.length x2
    && Array.for_all2 bits_equal x1 x2
    && s1.T.s_basis = s2.T.s_basis
    && s1.T.s_at_ub = s2.T.s_at_ub
  | T.Infeasible, T.Infeasible | T.Unbounded, T.Unbounded -> true
  | _, _ -> false

(* [f ()] under fresh telemetry, and whether no warm solve in it fell back
   to a cold one ([lp.bb.warm_fallbacks] = 0). *)
let without_fallback f =
  let r = under_fresh_telemetry f in
  (r, Telemetry.counter_value "lp.bb.warm_fallbacks" = 0)

(* The two children of one parent basis (x_vi <= k and x_vi >= k) re-solve
   to the same bits whichever runs first — the first memoises the
   parent snapshot's factor, the second reuses it — and whether the factor
   is shared at all or cleared before each child. Every re-solve is warm:
   none falls back to a cold solve. *)
let prop_sibling_resolves_share_factor =
  QCheck.Test.make ~name:"sibling re-solves agree with and without a shared factor"
    ~count:150 arb_lp_rebound (fun (spec, vi, k) ->
      let module T = Lp.Tableau in
      let cols = kernel_form spec in
      match T.solve cols with
      | T.Infeasible | T.Unbounded -> false (* the box forbids both *)
      | T.Optimal { snapshot = snap; _ } ->
        let kf = float_of_int k in
        let down s = T.solve cols ~snapshot:s ~changes:[ (vi, 0.0, kf) ] in
        let up s = T.solve cols ~snapshot:s ~changes:[ (vi, kf, 50.0 -. kf) ] in
        let cleared () = { snap with T.s_factor = None } in
        let agree, warm =
          without_fallback (fun () ->
              let down_first = down snap in
              let published = snap.T.s_factor <> None in
              let up_second = up snap in
              let snap' = cleared () in
              let up_first = up snap' in
              let down_second = down snap' in
              let down_alone = down (cleared ()) and up_alone = up (cleared ()) in
              published
              && same_resolve down_first down_second
              && same_resolve down_first down_alone
              && same_resolve up_first up_second
              && same_resolve up_first up_alone)
        in
        agree && warm)

(* The row-wise copy of a column store is the transpose of its columns:
   row [i] lists every column with an entry in row [i], ascending, with
   that entry's coefficient. *)
let prop_columns_row_copy_is_transpose =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun nrows ->
      let entry = pair (float_range (-5.0) 5.0) (int_range 0 2) in
      let col =
        list_size (return nrows) entry >|= fun es ->
        Array.of_list
          (List.concat
             (List.mapi (fun i (a, keep) -> if keep = 0 then [ (i, a) ] else []) es))
      in
      list_size (int_range 0 10) col >|= fun cols -> (nrows, Array.of_list cols))
  in
  let print (nrows, cols) =
    Printf.sprintf "%d rows: %s" nrows
      (String.concat " | "
         (Array.to_list
            (Array.map
               (fun c ->
                 String.concat " "
                   (Array.to_list (Array.map (fun (i, a) -> Printf.sprintf "%d:%g" i a) c)))
               cols)))
  in
  QCheck.Test.make ~name:"a column store's row copy is the transpose of its columns"
    ~count:300 (QCheck.make ~print gen) (fun (nrows, cols) ->
      let module T = Lp.Tableau in
      let store = bare_columns ~nrows cols in
      let expected i =
        List.concat
          (List.mapi
             (fun j col ->
               List.filter_map
                 (fun (r, a) -> if r = i then Some (j, a) else None)
                 (Array.to_list col))
             (Array.to_list cols))
      in
      let row i =
        List.init
          (store.T.row_start.(i + 1) - store.T.row_start.(i))
          (fun k ->
            let p = store.T.row_start.(i) + k in
            (store.T.row_col.(p), store.T.row_val.(p)))
      in
      Array.length store.T.row_start = nrows + 1
      && store.T.row_start.(0) = 0
      && store.T.row_start.(nrows) = Array.length store.T.row_col
      && Array.length store.T.row_val = Array.length store.T.row_col
      && List.for_all
           (fun i ->
             List.equal
               (fun (j1, a1) (j2, a2) -> j1 = j2 && bits_equal a1 a2)
               (row i) (expected i))
           (List.init nrows Fun.id))

(* A column store's workspace never carries one solve into the next. A
   cold solve and a warm re-solve chain on an LP give the same bits on a
   fresh store as on one that first served other nodes of the same form:
   a warm re-solve that shifts every structural column (another rhs) under
   other spans, one cut off by its iteration budget while fixing a column
   at zero span (its cold fallback is cut off too, or finds the node
   infeasible), and a cold solve aborted by [Iteration_limit]. Every
   re-solve of the chain is warm: none falls back to a cold solve. A form
   with a negative cost aborts after one phase-2 step; one without is
   optimal at its crash basis, which gives a budget of 0 an abort before
   its phase-2 pricing. *)
let prop_workspace_never_leaks =
  QCheck.Test.make ~name:"a column store's workspace never leaks between solves"
    ~count:150 arb_lp_rebound (fun (spec, vi, k) ->
      let module T = Lp.Tableau in
      let nv = List.length spec.var_bounds in
      let kf = float_of_int k in
      let chain cols =
        match T.solve cols with
        | (T.Infeasible | T.Unbounded) as r -> [ r ]
        | T.Optimal { snapshot; _ } as root ->
          let down = T.solve cols ~snapshot ~changes:[ (vi, 0.0, kf) ] in
          let up = T.solve cols ~snapshot ~changes:[ (vi, kf, 50.0 -. kf) ] in
          let vj = (vi + 1) mod nv and half = Float.of_int (k / 2) in
          let deeper_changes =
            if vj = vi then [ (vi, 0.0, half) ]
            else List.sort compare [ (vi, 0.0, kf); (vj, 0.0, half) ]
          in
          let deeper =
            match down with
            | T.Optimal { snapshot = s; _ } -> T.solve cols ~snapshot:s ~changes:deeper_changes
            | r -> r
          in
          [ root; down; up; deeper ]
      in
      let fresh, fresh_warm = without_fallback (fun () -> chain (kernel_form spec)) in
      let cols = kernel_form spec in
      let other u =
        List.init nv (fun j -> (j, float_of_int (j mod 3), if j = vi then u else 7.0))
      in
      (match T.solve cols with
       | T.Optimal { snapshot; _ } -> (
         ignore (T.solve cols ~snapshot ~changes:(other 1.0));
         match T.solve ~max_iters:0 cols ~snapshot ~changes:(other 0.0) with
         | exception T.Iteration_limit -> ()
         | _ -> ())
       | T.Infeasible | T.Unbounded -> ());
      let max_iters = if Array.exists (fun c -> c < 0.0) cols.T.c then 1 else 0 in
      let aborted =
        match T.solve ~max_iters cols with
        | exception T.Iteration_limit -> true
        | _ -> false
      in
      let used, used_warm = without_fallback (fun () -> chain cols) in
      aborted && fresh_warm && used_warm
      && List.length fresh = List.length used
      && List.for_all2 same_resolve fresh used)

(* A stale warm basis falls back, within the same solve, to the cold solve
   of the node. A snapshot solve that counts a fallback returns the bits
   of a solve with the same changes and no snapshot on a fresh store:
   value, x, basis and resting bounds, or the same abort. Fallbacks are
   forced three ways: a pivot budget of 0, a snapshot that lists one
   column twice, and two singular bases, one holding column 0 and its copy
   (the last variable), one holding row 0's slack and row 0's artificial.
   Each forced snapshot keeps the root optimum's resting bounds, which the
   cold solve must not inherit. Every snapshot solve counts one warm hit
   or one fallback, and the last three always fall back. Rows are [<= b]
   with [b >= 0] and variables live in [0, 50], so the root is optimal; a
   node's lower offsets may make its rhs negative. *)
let arb_stale_node =
  let gen =
    QCheck.Gen.(
      gen_lp ~vars:(1, 5) ~rows:(2, 5) ~var_bound:(return (0, Some 50))
        ~row_sense:(return M.Le) ~rhs:(int_range 0 20) ~maximize:(return true) ()
      >>= fun spec ->
      int_range (-5) 5 >>= fun copy_cost ->
      let spec =
        {
          spec with
          var_bounds = spec.var_bounds @ [ (0, Some 50) ];
          rows = List.map (fun (cs, sense, b) -> (cs @ [ List.hd cs ], sense, b)) spec.rows;
          obj = spec.obj @ [ copy_cost ];
        }
      in
      let change =
        triple (int_range 0 (List.length spec.var_bounds - 1)) (int_range 0 10)
          (opt (int_range 0 40))
      in
      list_size (int_range 0 3) change >>= fun changes -> return (spec, changes))
  in
  QCheck.make gen ~print:(fun (spec, changes) ->
      Printf.sprintf "%s changes %s" (show_lp spec)
        (String.concat ", "
           (List.map
              (fun (j, lo, span) ->
                Printf.sprintf "x%d+%d in [0, %s]" j lo
                  (match span with Some s -> string_of_int s | None -> "inf"))
              changes)))

let prop_fallback_is_the_cold_solve =
  QCheck.Test.make ~name:"a warm solve that falls back returns the cold solve's bits"
    ~count:300 arb_stale_node (fun (spec, changes) ->
      let module T = Lp.Tableau in
      let nv = List.length spec.var_bounds and m = List.length spec.rows in
      (* ascending, the first change of a column winning *)
      let changes =
        List.sort_uniq
          (fun (j, _, _) (k, _, _) -> Int.compare j k)
          (List.map
             (fun (j, lo, span) ->
               (j, float_of_int lo, Option.fold ~none:infinity ~some:float_of_int span))
             changes)
      in
      let outcome solve =
        match solve () with
        | r -> Ok r
        | exception (T.Iteration_limit | T.Singular as e) -> Error e
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> same_resolve a b
        | Error e, Error e' -> e = e'
        | _, _ -> false
      in
      let cols = kernel_form spec in
      match T.solve cols with
      | T.Infeasible | T.Unbounded -> false (* the box forbids both *)
      | T.Optimal { snapshot = root; _ } ->
        (* whether the snapshot solve counted one hit or one fallback, and
           a fallback's outcome matches the cold solve's *)
        let stale ?max_iters ~must_fall_back snapshot =
          let r =
            under_fresh_telemetry (fun () ->
                outcome (fun () -> T.solve ?max_iters ~snapshot ~changes cols))
          in
          let hits = Telemetry.counter_value "lp.bb.warm_hits"
          and fallbacks = Telemetry.counter_value "lp.bb.warm_fallbacks" in
          hits + fallbacks = 1
          && ((not must_fall_back) || fallbacks = 1)
          && (fallbacks = 0
             || same r (outcome (fun () -> T.solve ?max_iters ~changes (kernel_form spec))))
        in
        let forced basis =
          { T.s_basis = basis; s_at_ub = Array.copy root.T.s_at_ub; s_factor = None }
        in
        let twice = Array.copy root.T.s_basis in
        twice.(1) <- twice.(0);
        (* rows 0 and 1 on [b0] and [b1], every other row on its slack *)
        let singular b0 b1 =
          forced (Array.init m (fun i -> if i = 0 then b0 else if i = 1 then b1 else nv + i))
        in
        stale ~max_iters:0 ~must_fall_back:false root
        && stale ~must_fall_back:true (forced twice)
        && stale ~must_fall_back:true (singular 0 (nv - 1))
        && stale ~must_fall_back:true (singular nv (nv + m)))

(* Validation lives in the column store: a row index outside the form, a
   negative rhs, a negative span or a cost vector of the wrong length is
   rejected when the form is built, before any solve; a zero span (a fixed
   variable) is accepted. Changed columns out of order are rejected by the
   re-solve given them. *)
let test_columns_row_out_of_range () =
  let module T = Lp.Tableau in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let rejects cols = raises (fun () -> bare_columns ~nrows:2 cols) in
  check bool "row = nrows" true (rejects [| [| (0, 1.0); (2, 1.0) |] |]);
  check bool "negative row" true (rejects [| [| (-1, 1.0) |] |]);
  check bool "in range" false (rejects [| [| (0, 1.0); (1, 2.0) |]; [||] |]);
  let form ?(b = [| 1.0 |]) ?(c = [| 1.0 |]) ?(ubs = [| 1.0 |]) () =
    T.columns ~b ~c ~ubs [| [| (0, 1.0) |] |]
  in
  check bool "negative rhs" true (raises (form ~b:[| -1.0 |]));
  check bool "negative span" true (raises (form ~ubs:[| -1.0 |]));
  check bool "zero span" false (raises (form ~ubs:[| 0.0 |]));
  check bool "costs length" true (raises (form ~c:[||]));
  let cols = form () in
  match T.solve cols with
  | T.Optimal { snapshot; _ } ->
    check bool "changes out of order" true
      (raises (fun () ->
           T.solve cols ~snapshot ~changes:[ (0, 0.0, 1.0); (0, 0.0, 1.0) ]))
  | T.Infeasible | T.Unbounded -> Alcotest.fail "x = 1 is the optimum"

(* A zero-span column never enters a cold solve's basis, not even to drive
   out an artificial. Column 0 is fixed at 0 and column 1 has no upper
   bound; they share the equality row [x0 - x1 = 0]. No column covers the
   row, so an artificial does; phase 1 starts optimal at 0 (the reduced
   cost of column 1 is positive, and column 0 is never priced), and the
   artificial, still basic, is driven out by column 1, not by column 0,
   which comes first in the row. *)
let test_zero_span_never_basic () =
  let module T = Lp.Tableau in
  let cols =
    T.columns ~b:[| 0.0 |] ~c:[| 0.0; 1.0 |] ~ubs:[| 0.0; infinity |]
      [| [| (0, 1.0) |]; [| (0, -1.0) |] |]
  in
  match T.solve cols with
  | T.Optimal { value; x; snapshot } ->
    check flt "value" 0.0 value;
    check flt "fixed column" 0.0 x.(0);
    check bool "zero-span column not basic" false (Array.mem 0 snapshot.T.s_basis)
  | T.Infeasible | T.Unbounded -> Alcotest.fail "x = 0 is the optimum"

(* A warm start serves only the form it was taken from: offered to the form
   of another model with as many variables, it is not used, and the solve
   is the cold one. [a] and [b] share a row and differ in their
   objectives; warmed from [a]'s optimum (4, 1), [b] must still reach its
   own, 21 at (1, 4), not [a]'s 13 at (4, 1). *)
let test_warm_start_of_another_model () =
  let lp obj =
    let m = M.create () in
    let x = M.add_var m ~ub:(Q.of_int 4) "x" in
    let y = M.add_var m ~ub:(Q.of_int 4) "y" in
    M.add_constr m (E.add (E.var x) (E.var y)) M.Le (E.of_int 5);
    M.set_objective m `Maximize (E.add (E.iterm (fst obj) x) (E.iterm (snd obj) y));
    m
  in
  let a = lp (3, 1) and b = lp (1, 5) in
  let optimum = function
    | S.Optimal { objective; values; warm } -> (objective, values, warm)
    | S.Infeasible | S.Unbounded -> Alcotest.fail "expected optimal"
  in
  let obj_a, values_a, warm = optimum (S.solve (S.form a) []) in
  check flt "a's optimum" 13.0 obj_a;
  check (Alcotest.array flt) "a's vertex" [| 4.0; 1.0 |] values_a;
  let obj_b, values_b, _ = optimum (S.solve ~warm (S.form b) []) in
  check flt "b's optimum" 21.0 obj_b;
  check (Alcotest.array flt) "b's vertex" [| 1.0; 4.0 |] values_b

(* A bound overlay of the wrong length names the public function. *)
let test_simplex_bounds_length () =
  let m, _, _ = wyndor () in
  Alcotest.check_raises "message"
    (Invalid_argument "Simplex.solve_relaxation_float: bounds length") (fun () ->
      ignore (S.solve_relaxation_float ~bounds:[||] m))

(* A pivot budget the kernel cannot meet is a typed abort, not [Failure]. *)
let test_simplex_iteration_limit () =
  let m, _, _ = wyndor () in
  Alcotest.check_raises "typed abort" Lp.Tableau.Iteration_limit (fun () ->
      ignore (S.solve_relaxation_float ~max_iters:1 m))

(* A singular basis is a typed kernel failure, never [Failure]. Columns 0
   and 1 are equal, so a snapshot that makes both basic cannot be
   refactorised: the warm re-solve takes the basis for stale, counts one
   fallback and returns the bits of the cold solve of the node, and
   nothing escapes. So does a snapshot whose structural singleton (column
   2, on row 0) comes before row 0's own artificial (column 4): the
   artificial finds its row taken, which once escaped as an out-of-bounds
   [Invalid_argument]. *)
let test_tableau_singular_basis () =
  let module T = Lp.Tableau in
  let same = [| (0, 1.0); (1, 2.0) |] in
  let store () =
    T.columns ~b:[| 1.0; 2.0 |] ~c:[| 1.0; 1.0; 0.0; 0.0 |] ~ubs:(Array.make 4 infinity)
      [| same; same; [| (0, 1.0) |]; [| (1, 1.0) |] |]
  in
  let cols = store () and cold = T.solve (store ()) in
  List.iter
    (fun basis ->
      let snapshot =
        { T.s_basis = basis; s_at_ub = Array.make 4 false; s_factor = None }
      in
      let r = under_fresh_telemetry (fun () -> T.solve cols ~snapshot ~changes:[]) in
      check int_t "one fallback" 1 (Telemetry.counter_value "lp.bb.warm_fallbacks");
      check bool "the cold solve's bits" true (same_resolve cold r))
    [ [| 0; 1 |]; [| 2; 4 |] ]

(* A singular warm basis leaves nothing behind in its store. Columns 0 and
   1 are parallel, so refactorising a basis that holds both stops with
   [Singular] in the bump, while eliminating the second of them; the solve
   falls back to the cold solve of the node, with its bits. The next
   warm re-solve over the same store refactorises a three-column bump over
   the same rows, and must give the bits it gives on a fresh store: value,
   x, basis and resting bounds. *)
let test_singular_warm_basis_leaves_store_clean () =
  let module T = Lp.Tableau in
  let b = [| 4.0; 6.0; 5.0 |] in
  let c = [| -1.0; -1.0; -2.0; -1.0; -3.0; 0.0; 0.0; 0.0 |] in
  let ubs = Array.init 8 (fun j -> if j < 5 then 10.0 else infinity) in
  let store () =
    T.columns ~b ~c ~ubs
      [|
        [| (0, 1.0); (1, 1.0); (2, 1.0) |];
        [| (0, 2.0); (1, 2.0); (2, 2.0) |];
        [| (0, 1.0); (1, 2.0) |];
        [| (1, 1.0); (2, 1.0) |];
        [| (0, 1.0); (2, 3.0) |];
        [| (0, 1.0) |];
        [| (1, 1.0) |];
        [| (2, 1.0) |];
      |]
  in
  let snapshot basis =
    { T.s_basis = basis; s_at_ub = Array.make 8 false; s_factor = None }
  in
  let next cols =
    without_fallback (fun () ->
        T.solve cols ~snapshot:(snapshot [| 2; 3; 4 |]) ~changes:[])
  in
  let used = store () in
  let r =
    under_fresh_telemetry (fun () ->
        T.solve used ~snapshot:(snapshot [| 0; 1; 7 |]) ~changes:[])
  in
  check int_t "one fallback" 1 (Telemetry.counter_value "lp.bb.warm_fallbacks");
  check bool "the cold solve's bits" true (same_resolve (T.solve (store ())) r);
  let fresh, warm = next (store ()) in
  (match fresh with
   | T.Optimal _ when warm -> ()
   | _ -> Alcotest.fail "the follow-up re-solve reaches an optimum warm");
  let again, warm = next used in
  check bool "the follow-up is warm on the used store" true warm;
  check bool "same bits as on a fresh store" true (same_resolve fresh again)

(* LPs with dense to half-empty columns, whose warm re-solves refactorise
   a bump of several basic structural columns; in the sparser ones a bump
   column also reaches rows through the etas of earlier ones. Each LP is
   solved twice: as generated, where a bump column reaches more than an
   eighth of the rows and its reach is ordered by a sweep over the rows,
   and padded with [8 m] rows that only a slack of their own meets, where
   the same reach is at most an eighth and its runs are merged. The
   padding changes no pivot, so the two must agree bit for bit on the
   original rows and columns; a warm re-solve must also agree with a cold
   solve of the same bounds, without falling back to one. *)
let arb_bump_lp =
  let gen =
    QCheck.Gen.(
      int_range 2 10 >>= fun nv ->
      int_range 2 10 >>= fun m ->
      int_range 0 8 >>= fun zeros ->
      let coeff =
        frequency
          [ (4, return 1); (2, int_range 2 3); (2, return (-1)); (zeros, return 0) ]
      in
      list_size (return m)
        (triple (list_size (return nv) coeff) (return M.Le) (int_range 5 40))
      >>= fun rows ->
      list_size (return nv) (int_range 0 9) >>= fun obj ->
      int_range 0 (nv - 1) >>= fun vi ->
      int_range 1 20 >>= fun k ->
      return
        ( {
            var_bounds = List.init nv (fun _ -> (0, Some 50));
            rows;
            obj;
            maximize = true;
          },
          vi,
          k ))
  in
  QCheck.make gen ~print:(fun (spec, vi, k) ->
      Printf.sprintf "%s change x%d.ub=%d" (show_lp spec) vi k)

let prop_bump_orderings_agree =
  QCheck.Test.make ~name:"bump elimination agrees under both reach orderings"
    ~count:1000 arb_bump_lp (fun (spec, vi, k) ->
      let module T = Lp.Tableau in
      let cols = kernel_form spec in
      let m = cols.T.nrows and n = Array.length cols.T.c in
      let pad = 8 * m in
      let pairs =
        Array.map2 (Array.map2 (fun i a -> (i, a))) cols.T.col_idx cols.T.col_val
      in
      let padded =
        T.columns
          ~b:(Array.append cols.T.b (Array.make pad 1.0))
          ~c:(Array.append cols.T.c (Array.make pad 0.0))
          ~ubs:(Array.append cols.T.ubs (Array.make pad infinity))
          (Array.init (n + pad) (fun j ->
               if j < n then pairs.(j) else [| (m + j - n, 1.0) |]))
      in
      let kf = float_of_int k in
      let tight =
        T.columns ~b:cols.T.b ~c:cols.T.c
          ~ubs:(Array.mapi (fun j u -> if j = vi then kf else u) cols.T.ubs)
          pairs
      in
      (* the result of a padded solve, cut down to the original form *)
      let unpad = function
        | T.Optimal { value; x; snapshot = s } ->
          T.Optimal
            {
              value;
              x = Array.sub x 0 n;
              snapshot =
                {
                  T.s_basis = Array.sub s.T.s_basis 0 m;
                  s_at_ub = Array.sub s.T.s_at_ub 0 n;
                  s_factor = None;
                };
            }
        | r -> r
      in
      let agrees r cold =
        match r with
        | T.Optimal { value; _ } -> Float.abs (value -. cold) < 1e-6
        | T.Infeasible | T.Unbounded -> false
      in
      match (T.solve cols, T.solve padded, T.solve tight) with
      | ( (T.Optimal { value; snapshot = s; _ } as r),
          (T.Optimal { snapshot = s'; _ } as r'),
          T.Optimal { value = cold_node; _ } ) ->
        let (again, again', node, node'), warm =
          without_fallback (fun () ->
              let again = T.solve cols ~snapshot:s ~changes:[] in
              let again' = T.solve padded ~snapshot:s' ~changes:[] in
              let node = T.solve cols ~snapshot:s ~changes:[ (vi, 0.0, kf) ] in
              let node' = T.solve padded ~snapshot:s' ~changes:[ (vi, 0.0, kf) ] in
              (again, again', node, node'))
        in
        warm
        && same_resolve r (unpad r')
        && same_resolve again (unpad again')
        && same_resolve node (unpad node')
        && agrees again value
        && agrees node cold_node
      | _, _, _ -> false (* the origin is feasible and the box bounded *))

(* A node that moves many columns at once, so that the dual phase starts
   with several infeasible rows: from the cold optimum of an
   [arb_lp_rebound]-like LP, each column may take a new offset and span.
   A structural column moves to [lo + [0, span]] inside its old box; a
   slack (the [<=] row's) gets an offset and keeps no upper bound, or gets
   one (the row becomes a range). About half the nodes stay feasible. *)
let arb_wide_node =
  let gen =
    QCheck.Gen.(
      gen_lp ~vars:(6, 14) ~rows:(4, 10) ~var_bound:(return (0, Some 50))
        ~row_sense:(return M.Le) ~rhs:(int_range 0 40) ~maximize:(return true) ()
      >>= fun spec ->
      let nv = List.length spec.var_bounds in
      let span j =
        if j < nv then map float_of_int (int_range 0 20)
        else oneofl [ infinity; 10.0; 25.0 ]
      in
      let change j =
        frequency
          [
            (1, return None);
            (3, map2 (fun lo span -> Some (float_of_int lo, span))
                  (int_range 0 (if j < nv then 3 else 5)) (span j));
          ]
      in
      flatten_l (List.init (nv + List.length spec.rows) change)
      >>= fun changes -> return (spec, changes))
  in
  QCheck.make gen ~print:(fun (spec, changes) ->
      Printf.sprintf "%s changes %s" (show_lp spec)
        (String.concat ", "
           (List.concat
              (List.mapi
                 (fun j -> function
                   | Some (lo, span) -> [ Printf.sprintf "col%d: lo %g span %g" j lo span ]
                   | None -> [])
                 changes))))

(* The warm re-solve of a wide node agrees with the cold solve of the same
   node: the same status and an objective within 1e-6 relative. *)
let prop_wide_node_warm_matches_cold =
  QCheck.Test.make ~name:"a warm re-solve of a node moving every column matches cold"
    ~count:200 arb_wide_node (fun (spec, opt_changes) ->
      let module T = Lp.Tableau in
      let cols = kernel_form spec in
      let changes =
        List.concat
          (List.mapi
             (fun j -> function
               | Some (lo, span) -> [ (j, lo, span) ]
               | None -> [])
             opt_changes)
      in
      match T.solve cols with
      | T.Infeasible | T.Unbounded -> false (* a feasible origin, a bounded box *)
      | T.Optimal { snapshot; _ } -> (
        let warm, hit = without_fallback (fun () -> T.solve cols ~snapshot ~changes) in
        hit
        &&
        match (warm, T.solve cols ~changes) with
        | T.Optimal { value = w; _ }, T.Optimal { value = c; _ } ->
          Float.abs (w -. c) <= 1e-6 *. Float.max 1.0 (Float.abs c)
        | T.Infeasible, T.Infeasible | T.Unbounded, T.Unbounded -> true
        | _, _ -> false))

(* A warm re-solve long enough to refactorise inside its dual phase
   ([Factor.due] after 60 etas at 40 rows), so that the phase rebuilds its
   list of infeasible rows from the new x_B. A packing LP of 40 rows and
   100 columns in [0, 10], drawn from a fixed linear congruential stream,
   is solved cold; its node narrows every row to a range (each slack's
   span 0 to 5) and re-spans about a quarter of the columns. The re-solve
   takes more than 60 dual pivots and some bound flips, refactorises twice
   (for the snapshot, then mid-phase), never falls back to a cold solve
   (a row missing from the list would fail the accuracy check and fall
   back) and matches the cold solve. *)
let test_warm_refactorises_mid_dual_phase () =
  let module T = Lp.Tableau in
  let m = 40 and nv = 100 in
  let state = ref 88 in
  let next k =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (!state lsr 8) mod k
  in
  let a =
    Array.init nv (fun _ ->
        Array.init m (fun _ -> if next 100 < 8 then 1 + next 9 else 0))
  in
  let cols =
    Array.init (nv + m) (fun j ->
        if j >= nv then [| (j - nv, 1.0) |]
        else
          Array.of_list
            (List.filter_map
               (fun i -> if a.(j).(i) = 0 then None else Some (i, float_of_int a.(j).(i)))
               (List.init m Fun.id)))
  in
  let b = Array.init m (fun _ -> float_of_int (20 + next 40)) in
  let c = Array.init (nv + m) (fun j -> if j < nv then -.float_of_int (1 + next 20) else 0.0) in
  let ubs = Array.init (nv + m) (fun j -> if j < nv then 10.0 else infinity) in
  let store = T.columns ~b ~c ~ubs cols in
  match T.solve store with
  | T.Infeasible | T.Unbounded -> Alcotest.fail "the root is optimal"
  | T.Optimal { snapshot; _ } ->
    let changes =
      List.filter_map
        (fun j ->
          if j < nv then if next 4 <> 0 then None else Some (j, 0.0, float_of_int (next 10))
          else Some (j, 0.0, float_of_int (next 6)))
        (List.init (nv + m) Fun.id)
    in
    let warm = under_fresh_telemetry (fun () -> T.solve store ~snapshot ~changes) in
    let counter = Telemetry.counter_value in
    check int_t "no fallback" 0 (counter "lp.bb.warm_fallbacks");
    check int_t "one warm hit" 1 (counter "lp.bb.warm_hits");
    check bool "over 60 dual pivots" true (counter "lp.simplex.dual_pivots" > 60);
    check bool "bound flips" true (counter "lp.simplex.bound_flips" > 0);
    check int_t "refactorised for the snapshot and in the dual phase" 2
      (counter "lp.simplex.refactorisations");
    match (warm, T.solve store ~changes) with
    | T.Optimal { value = w; _ }, T.Optimal { value = c; _ } ->
      check bool "warm matches cold" true
        (Float.abs (w -. c) <= 1e-6 *. Float.max 1.0 (Float.abs c))
    | _, _ -> Alcotest.fail "both optimal"

(* A warm re-solve given a node's changed columns solves the node a
   second form describes whose rhs and spans were shifted by hand: rhs
   [b - A lo] subtracted column by column in ascending order, spans
   written over. Re-solved from the same snapshot with no changes, that
   form's vertex plus the offsets and its value plus the offsets' cost
   (summed from 0 in column order) must be the first result bit for bit,
   and neither re-solve may fall back to a cold solve.
   Coefficients and offsets are not integers, so a row met by several
   shifted columns, or three or more shift costs, round differently in
   another order; distinct offsets show one added back to the wrong
   column. Rows are [<= b] with [b] large enough that the shifted rhs stays
   non-negative, as a form's must. *)
let arb_shifted_node =
  let gen =
    QCheck.Gen.(
      int_range 2 8 >>= fun nv ->
      int_range 2 8 >>= fun m ->
      let coeff = frequency [ (3, float_range (-3.0) 3.0); (1, return 0.0) ] in
      list_size (return m) (pair (list_size (return nv) coeff) (float_range 40.0 80.0))
      >>= fun rows ->
      list_size (return nv) (float_range 0.0 5.0) >>= fun obj ->
      let lo = frequency [ (1, return 0.0); (3, float_range 0.0 2.0) ] in
      let span = frequency [ (1, return infinity); (4, float_range 0.5 20.0) ] in
      list_size (return nv) (opt (pair lo span)) >>= fun changes ->
      return (rows, obj, changes))
  in
  QCheck.make gen ~print:(fun (rows, obj, changes) ->
      let floats l = String.concat " " (List.map (Printf.sprintf "%h") l) in
      Printf.sprintf "rows: %s\nobj: %s\nchanges: %s"
        (String.concat " | "
           (List.map (fun (cs, b) -> Printf.sprintf "%s <= %h" (floats cs) b) rows))
        (floats obj)
        (String.concat " "
           (List.mapi
              (fun j -> function
                 | Some (lo, span) -> Printf.sprintf "x%d:%h+[0,%h]" j lo span
                 | None -> "")
              changes)))

let prop_changes_match_shifted_form =
  QCheck.Test.make ~name:"a re-solve's changed columns match a form shifted by hand"
    ~count:300 arb_shifted_node (fun (rows, obj, opt_changes) ->
      let module T = Lp.Tableau in
      let rows = Array.of_list rows in
      let m = Array.length rows and nv = List.length obj in
      let pairs =
        Array.init (nv + m) (fun j ->
            if j >= nv then [| (j - nv, 1.0) |]
            else
              Array.of_list
                (List.filter_map
                   (fun i ->
                     let a = List.nth (fst rows.(i)) j in
                     if a = 0.0 then None else Some (i, a))
                   (List.init m Fun.id)))
      in
      let c = Array.init (nv + m) (fun j -> if j < nv then -.List.nth obj j else 0.0) in
      let ubs = Array.init (nv + m) (fun j -> if j < nv then 50.0 else infinity) in
      let cols = T.columns ~b:(Array.map snd rows) ~c ~ubs pairs in
      let changes =
        List.concat
          (List.mapi
             (fun j -> function Some (lo, span) -> [ (j, lo, span) ] | None -> [])
             opt_changes)
      in
      let b' = Array.copy cols.T.b and ubs' = Array.copy ubs in
      List.iter
        (fun (j, lo, span) ->
          ubs'.(j) <- span;
          Array.iter (fun (i, a) -> b'.(i) <- b'.(i) -. (a *. lo)) pairs.(j))
        changes;
      let shifted = T.columns ~b:b' ~c ~ubs:ubs' pairs in
      match T.solve cols with
      | T.Infeasible | T.Unbounded -> false (* a feasible origin, a bounded box *)
      | T.Optimal { snapshot; _ } ->
        let same, warm =
          without_fallback (fun () ->
              let by_hand =
                match T.solve shifted ~snapshot ~changes:[] with
                | T.Optimal { value; x; snapshot } ->
                  let x = Array.copy x in
                  let cost = ref 0.0 in
                  List.iter
                    (fun (j, lo, _) ->
                      x.(j) <- x.(j) +. lo;
                      cost := !cost +. (c.(j) *. lo))
                    changes;
                  T.Optimal { value = value +. !cost; x; snapshot }
                | r -> r
              in
              same_resolve (T.solve cols ~snapshot ~changes) by_hand)
        in
        same && warm)

(* [a x = v] by dense Gaussian elimination with partial pivoting, [a] a
   square matrix as an array of rows. *)
let dense_solve a v =
  let m = Array.length v in
  let a = Array.map Array.copy a and x = Array.copy v in
  for k = 0 to m - 1 do
    let p = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let row = a.(k) and xk = x.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- row;
    x.(k) <- x.(!p);
    x.(!p) <- xk;
    for i = k + 1 to m - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to m - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done;
      x.(i) <- x.(i) -. (f *. x.(k))
    done
  done;
  for k = m - 1 downto 0 do
    let s = ref x.(k) in
    for j = k + 1 to m - 1 do
      s := !s -. (a.(k).(j) *. x.(j))
    done;
    x.(k) <- !s /. a.(k).(k)
  done;
  x

(* A factor over random sparse nonsingular bases of up to 30 rows agrees
   with dense Gaussian elimination, to 1e-9 relative to the solution's
   largest entry: after [factorise], after a run of [update]s, and after
   [restore] from the memo of the factorisation followed by more updates.
   Every column has a home row: an artificial its own (as [e_i] or, with
   a random sign, [-e_i]), a structural singleton (scaled or not) its one
   row, and a bump column the row where
   its entry (2 or 3) outweighs its up to three others (0.5) together. A
   basis holds one column per home row, in a random order, so it is
   nonsingular and well conditioned, and an update swaps in a nonbasic
   column for the basic one with the same home row. About a quarter of the
   bases have a bump. The entries keep every
   value of a solve well above the kernel's drop tolerance of 1e-9, which
   entries of 5 or 0.2 do not: their products fall below it within a few
   dozen updates. The store also holds columns that only updates
   bring in. [due] must hold exactly when more than [min 150 (50 + m/4)]
   updates followed the last factorisation or restore. *)
let prop_factor_matches_dense =
  let arb =
    QCheck.make
      ~print:(fun (m, seed) -> Printf.sprintf "m = %d, seed %d" m seed)
      QCheck.Gen.(pair (int_range 1 30) (int_bound 1_000_000))
  in
  QCheck.Test.make ~name:"factor solves agree with dense Gaussian elimination"
    ~count:300 arb (fun (m, seed) ->
      let rng = Random.State.make [| seed |] in
      let int k = Random.State.int rng k in
      let pick a = a.(int (Array.length a)) in
      (* a structural column with home row [h]: a singleton or a bump column *)
      let column_on h =
        if int 3 = 0 then [| (h, pick [| 1.0; 2.0; -0.5; 3.0; -1.0 |]) |]
        else
          List.init (int 4) (fun _ -> int m)
          |> List.filter (( <> ) h)
          |> List.sort_uniq compare
          |> List.map (fun i -> (i, pick [| 0.5; -0.5 |]))
          |> List.cons (h, pick [| 2.0; -2.0; 3.0; -3.0 |])
          |> List.sort compare |> Array.of_list
      in
      (* (home, column) for each row's first basic column, then the extras;
         [None] is the artificial *)
      let first = Array.init m (fun h -> if int 4 = 0 then None else Some (column_on h)) in
      let extras = List.init (1 + (m / 2)) (fun _ -> let h = int m in (h, column_on h)) in
      let structural =
        Array.of_list
          (List.filter_map (fun (h, c) -> Option.map (fun c -> (h, c)) c)
             (Array.to_list (Array.mapi (fun h c -> (h, c)) first))
          @ extras)
      in
      let n = Array.length structural in
      let art = Array.init m (fun _ -> pick [| 1.0; -1.0 |]) in
      let home j = if j >= n then j - n else fst structural.(j) in
      let column j =
        let v = Array.make m 0.0 in
        if j >= n then v.(j - n) <- art.(j - n)
        else Array.iter (fun (i, a) -> v.(i) <- a) (snd structural.(j));
        v
      in
      (* the first basic column of each row, in a random order *)
      let basis =
        let next = ref 0 in
        Array.map
          (function
            | None -> None
            | Some _ ->
              incr next;
              Some (!next - 1))
          first
        |> Array.mapi (fun h j -> (int 1_000_000, Option.value j ~default:(n + h)))
        |> (fun a -> Array.sort compare a; a)
        |> Array.map snd
      in
      let f =
        Lp.Factor.create ~nrows:m
          (Array.map (fun (_, c) -> Array.map fst c) structural)
          (Array.map (fun (_, c) -> Array.map snd c) structural)
      in
      let close x d =
        let scale = Array.fold_left (fun s e -> Float.max s (Float.abs e)) 1.0 d in
        Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9 *. scale) x d
      in
      let agrees () =
        let cols = Array.map column basis in
        let b = Array.init m (fun i -> Array.init m (fun k -> cols.(k).(i))) in
        List.for_all
          (fun _ ->
            let v = Array.init m (fun _ -> float_of_int (int 11 - 5)) in
            let x = Array.copy v and y = Array.copy v in
            Lp.Factor.ftran f x;
            Lp.Factor.btran f y;
            close x (dense_solve b v) && close y (dense_solve cols v))
          [ 1; 2; 3 ]
      in
      let updates k =
        for _ = 1 to k do
          let j = ref (int (n + m)) in
          while Array.mem !j basis do j := (!j + 1) mod (n + m) done;
          let r = ref 0 in
          while home basis.(!r) <> home !j do incr r done;
          let alpha = column !j in
          Lp.Factor.ftran f alpha;
          let rows = Array.make m 0 and cnt = ref 0 in
          Array.iteri
            (fun i a ->
              if Float.abs a > 1e-9 then begin
                rows.(!cnt) <- i;
                incr cnt
              end)
            alpha;
          Lp.Factor.update f ~row:!r alpha rows !cnt;
          basis.(!r) <- !j
        done;
        Lp.Factor.due f = (k > min 150 (50 + (m / 4)))
      in
      let before = List.sort compare (Array.to_list basis) in
      ignore (Lp.Factor.factorise f ~art basis);
      let memo = Lp.Factor.memo f basis and factorised = Array.copy basis in
      let permuted = List.sort compare (Array.to_list basis) = before in
      let fresh = agrees () && not (Lp.Factor.due f) in
      let updated = updates (int 80) && agrees () in
      Lp.Factor.clear f;
      Lp.Factor.restore f memo basis;
      let restored = basis = factorised && agrees () && not (Lp.Factor.due f) in
      permuted && fresh && updated && restored && updates (int 80) && agrees ())

(* The model of the warm-start tests: five variables in [0, 8] and three
   rows, with [x3] fixed at 2. A node is given by its changes
   [(var, (lb, ub))]: [bounds] makes them the bound vector of a cold
   reference solve, [branchings] the branchings of a warm one. *)
let five_var_lp () =
  let m = M.create () in
  let x =
    Array.init 5 (fun i ->
        let lb, ub = if i = 3 then (2, 2) else (0, 8) in
        M.add_var m ~lb:(Q.of_int lb) ~ub:(Q.of_int ub) (Printf.sprintf "x%d" i))
  in
  let expr cs = E.sum (List.map (fun (c, i) -> E.iterm c x.(i)) cs) in
  M.add_constr m (expr [ (1, 0); (1, 1); (1, 2); (1, 4) ]) M.Le (E.of_int 10);
  M.add_constr m (expr [ (2, 0); (1, 2); (1, 3); (1, 4) ]) M.Le (E.of_int 14);
  M.add_constr m (expr [ (1, 1); (3, 2) ]) M.Le (E.of_int 12);
  M.set_objective m `Maximize (expr [ (3, 0); (2, 1); (4, 2); (1, 3); (2, 4) ]);
  let bounds changes =
    Array.init 5 (fun i ->
        match List.assoc_opt i changes with
        | Some (l, u) -> (Q.of_int l, Some (Q.of_int u))
        | None -> (M.var_lb m i, M.var_ub m i))
  in
  (m, bounds)

let branchings changes =
  List.map (fun (v, (l, u)) -> (v, Q.of_int l, Some (Q.of_int u))) changes

(* A form of [m] and the warm start of its optimum. *)
let warm_root m =
  let f = S.form m in
  match S.solve f [] with
  | S.Optimal { warm; _ } -> (f, warm)
  | S.Infeasible | S.Unbounded -> Alcotest.fail "the root has an optimum"

(* [f ()] under fresh telemetry, with the warm hits and fallbacks it
   counted. *)
let counting_warm f =
  let r = under_fresh_telemetry f in
  ( r,
    Telemetry.counter_value "lp.bb.warm_hits",
    Telemetry.counter_value "lp.bb.warm_fallbacks" )

(* Unfixing a variable the form fixed is an ordinary warm re-solve: the
   form keeps [x3] as a zero-span column, so the node widens its span and
   the kernel repairs the basis, with the objective and vertex of a cold
   solve of the node. *)
let test_unfixing_is_a_warm_hit () =
  let m, bounds = five_var_lp () in
  let f, warm = warm_root m in
  let unfix = [ (0, (1, 5)); (3, (0, 4)) ] in
  let r, hits, fallbacks =
    counting_warm (fun () -> S.solve ~warm f (branchings unfix))
  in
  check int_t "a warm hit" 1 hits;
  check int_t "no fallback" 0 fallbacks;
  match (r, S.solve_relaxation_float ~bounds:(bounds unfix) m) with
  | S.Optimal warm_r, S.Optimal cold ->
    check flt "objective" cold.objective warm_r.objective;
    check (Alcotest.array flt) "values" cold.values warm_r.values;
    check flt "x3 unfixed" 4.0 warm_r.values.(3)
  | _ -> Alcotest.fail "the node has an optimum"

(* A warm start never carries one node into the next. One warm start
   serves three nodes, each followed by the same warm re-solve: a node
   whose warm re-solve runs out of its pivot budget after the kernel
   shifted [x0] and unfixed [x3] (the solve falls back to a cold solve of
   the node on the same form, which runs out too), a node stopped by a
   deadline that has already passed (after the kernel shifted [x1] and its
   rhs), and an ordinary node that shifts [x2]. Every follow-up must be a
   warm hit with the bits of the same re-solve from a freshly prepared
   form. The fallback translates nothing: it adds no row to
   [lp.simplex.rows] and counts one cold solve. *)
let test_warm_scratch_never_leaks () =
  let m, _ = five_var_lp () in
  let follow_up (f, warm) =
    let r, hits, _ =
      counting_warm (fun () -> S.solve ~warm f (branchings [ (4, (1, 3)) ]))
    in
    check int_t "follow-up is a warm hit" 1 hits;
    match r with
    | S.Optimal { objective; values; _ } -> (objective, values)
    | S.Infeasible | S.Unbounded -> Alcotest.fail "the follow-up has an optimum"
  in
  let expected = follow_up (warm_root m) in
  let same (o1, v1) (o2, v2) = bits_equal o1 o2 && Array.for_all2 bits_equal v1 v2 in
  let f, warm = warm_root m in
  let after name node =
    node ();
    check bool name true (same expected (follow_up (f, warm)))
  in
  after "after a fallback" (fun () ->
      let unfix = branchings [ (0, (1, 5)); (3, (0, 4)) ] in
      let (), _, fallbacks =
        counting_warm (fun () ->
            match S.solve ~max_iters:0 ~warm f unfix with
            | exception Lp.Tableau.Iteration_limit ->
              check int_t "no row translated" 0
                (Telemetry.counter_value "lp.simplex.rows");
              check int_t "one cold solve" 1
                (Telemetry.counter_value "lp.simplex.solves")
            | _ -> Alcotest.fail "no pivot budget for a cold solve")
      in
      check int_t "the warm re-solve fell back" 1 fallbacks);
  after "after a deadline" (fun () ->
      match
        S.solve
          ~deadline:(Telemetry.Clock.now_s () -. 1.0)
          ~warm f
          (branchings [ (1, (2, 6)) ])
      with
      | exception Lp.Tableau.Deadline_exceeded -> ()
      | _ -> Alcotest.fail "a passed deadline stops the node");
  after "after an ordinary node" (fun () ->
      ignore (S.solve ~warm f (branchings [ (2, (1, 3)) ])))

(* A stale basis re-solves cold on the form it came from: nothing is
   translated, and the cold solve's basis warms the node's children. The
   node fixes every variable the root's optimum holds basic at 0, so its
   dual repair needs more than the one iteration a pivot budget of 1
   allows and falls back, while its cold solve, with every column fixed,
   needs no pivot. Its child unfixes [x0] again (the newest bound wins)
   and must be a warm hit from the fallback's basis. Both must match a
   fresh translation of their bounds. *)
let test_stale_basis_translates_nothing () =
  let m, bounds = five_var_lp () in
  let f, warm = warm_root m in
  let fixed = [ (0, (0, 0)); (1, (0, 0)); (2, (0, 0)); (4, (0, 0)) ] in
  let counted solve =
    let r = under_fresh_telemetry solve in
    let c = Telemetry.counter_value in
    check int_t "no row translated" 0 (c "lp.simplex.rows");
    (r, c "lp.simplex.solves", c "lp.bb.warm_fallbacks", c "lp.bb.warm_hits")
  in
  let matches name changes = function
    | S.Optimal r -> (
      match S.solve_relaxation_float ~bounds:(bounds changes) m with
      | S.Optimal cold ->
        check flt (name ^ " objective") cold.objective r.objective;
        check (Alcotest.array flt) (name ^ " values") cold.values r.values;
        r.warm
      | S.Infeasible | S.Unbounded -> Alcotest.fail "the node has an optimum")
    | S.Infeasible | S.Unbounded -> Alcotest.fail "the node has an optimum"
  in
  let r, solves, fallbacks, _ =
    counted (fun () -> S.solve ~max_iters:1 ~warm f (branchings fixed))
  in
  check int_t "one cold solve" 1 solves;
  check int_t "the warm re-solve fell back" 1 fallbacks;
  let warm = matches "fallback" fixed r in
  let child = (0, (0, 8)) :: fixed in
  let r, solves, fallbacks, hits =
    counted (fun () -> S.solve ~warm f (branchings child))
  in
  check int_t "no cold solve" 0 solves;
  check int_t "no fallback" 0 fallbacks;
  check int_t "a warm hit from the fallback's basis" 1 hits;
  ignore (matches "child" [ (0, (0, 8)); (1, (0, 0)); (2, (0, 0)); (4, (0, 0)) ] r)

(* ---------- Presolve ---------- *)

(* The reduced model presolve returns; fails the test on [Proved_infeasible]. *)
let reduced m =
  match Lp.Presolve.run m with
  | Lp.Presolve.Reduced { model; changes } -> (model, changes)
  | Lp.Presolve.Proved_infeasible -> Alcotest.fail "not infeasible"

let test_presolve_tightens () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 100) "x" in
  let y = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 100) "y" in
  (* Maximise so duality fixing cannot fix x/y at their lower bounds and the
     propagated upper bounds stay observable. *)
  M.set_objective m `Maximize (E.add (E.var x) (E.var y));
  M.add_constr m (E.add (E.var x) (E.var y)) M.Le (E.of_int 7);
  let r, changes = reduced m in
  check bool "changed" true (changes > 0);
  check bool "x ub tightened" true (M.var_ub r x = Some (Q.of_int 7));
  check bool "y ub tightened" true (M.var_ub r y = Some (Q.of_int 7))

let test_presolve_integer_rounding () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "x" in
  M.set_objective m `Maximize (E.var x);
  M.add_constr m (E.iterm 2 x) M.Le (E.of_int 7);
  let r, _ = reduced m in
  check bool "rounded down to 3" true (M.var_ub r x = Some (Q.of_int 3))

let test_presolve_infeasible () =
  let m = M.create () in
  let x = M.add_var m ~ub:(Q.of_int 1) "x" in
  M.add_constr m (E.var x) M.Ge (E.of_int 5);
  match Lp.Presolve.run m with
  | Lp.Presolve.Proved_infeasible -> ()
  | Lp.Presolve.Reduced _ -> Alcotest.fail "expected infeasible"

(* Every pass fires on this model: a singleton row becomes a bound,
   propagation tightens y, a big-M coefficient of the binary b is reduced,
   and duality fixing fixes z. The input must read the same afterwards. *)
let test_presolve_leaves_input () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "x" in
  let y = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "y" in
  let b = M.add_var m ~kind:M.Binary "b" in
  let z = M.add_var m ~ub:(Q.of_int 4) "z" in
  M.add_constr m (E.var x) M.Le (E.of_int 3);
  M.add_constr m (E.add (E.var x) (E.var y)) M.Le (E.of_int 5);
  M.add_constr m (E.add (E.var y) (E.iterm 100 b)) M.Le (E.of_int 104);
  M.add_constr m (E.sub (E.var x) (E.var z)) M.Le (E.of_int 8);
  M.set_objective m `Maximize (E.sum [ E.var x; E.var y; E.var b; E.iterm (-1) z ]);
  let before = Format.asprintf "%a" M.pp m in
  let r, changes = reduced m in
  check bool "changed" true (changes > 0);
  check bool "the result differs" true (Format.asprintf "%a" M.pp r <> before);
  check Alcotest.string "input unchanged" before (Format.asprintf "%a" M.pp m);
  check int_t "input keeps its rows" 4 (M.constr_count m);
  check bool "input keeps its bounds" true (M.var_ub m x = Some (Q.of_int 10))

(* Presolve stops at its deadline between rows: a stepped clock (1 ms per
   read, read every 256 rows) passes a 0.5 ms deadline on its second read.
   Every singleton row visited before that became a bound; every later row
   is still in the model, its variable untouched. *)
let test_presolve_deadline_stops () =
  let n = 1000 in
  let m = M.create () in
  let xs =
    Array.init n (fun i -> M.add_var m ~ub:(Q.of_int 10) (Printf.sprintf "x%d" i))
  in
  Array.iter (fun x -> M.add_constr m (E.var x) M.Le (E.of_int 5)) xs;
  M.set_objective m `Maximize (E.sum (Array.to_list (Array.map E.var xs)));
  Telemetry.reset ();
  Telemetry.enable ();
  let ticks = Atomic.make 0 in
  Telemetry.Clock.set_source (fun () ->
      float_of_int (Atomic.fetch_and_add ticks 1) *. 1e-3);
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ();
      Telemetry.Clock.use_wall_clock ())
    (fun () ->
      let r, changes =
        match Lp.Presolve.run ~deadline:0.5e-3 m with
        | Lp.Presolve.Reduced { model; changes } -> (model, changes)
        | Lp.Presolve.Proved_infeasible -> Alcotest.fail "not infeasible"
      in
      check int_t "stopped once" 1 (Telemetry.counter_value "lp.presolve.deadline_stops");
      check int_t "two clock reads" 2 (Atomic.get ticks);
      let kept = M.constr_count r in
      check int_t "rows before the second read consumed" (n - 511) kept;
      check int_t "a bound and a removal per row" (2 * 511) changes;
      let tightened =
        Array.fold_left
          (fun k x -> if M.var_ub r x = Some (Q.of_int 5) then k + 1 else k)
          0 xs
      in
      check int_t "one bound per consumed row" (n - kept) tightened)

(* Presolve must preserve the optimal objective value (not necessarily the
   optimal point: duality fixing may pick one optimum among several) on
   random small ILPs. Each variable is boxed in [lb, lb + 6] with lb drawn
   from [-3, 0], so every instance is either Optimal or Infeasible,
   branch-and-bound terminates, and presolve and the tree search both see
   negative lower bounds. *)
let arb_ilp =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun nvars ->
      list_size (return nvars) (int_range (-3) 0) >>= fun lbs ->
      int_range 1 4 >>= fun nrows ->
      let coeff = int_range (-3) 3 in
      list_size (return nrows)
        (triple (list_size (return nvars) coeff) (int_range 0 2) (int_range (-4) 12))
      >>= fun rows ->
      list_size (return nvars) coeff >>= fun obj ->
      bool >>= fun maximize -> return (lbs, rows, obj, maximize))
  in
  QCheck.make gen ~print:(fun (lbs, rows, obj, maximize) ->
      Printf.sprintf "lbs=%s rows=%s obj=%s dir=%s"
        (String.concat "," (List.map string_of_int lbs))
        (String.concat ";"
           (List.map
              (fun (cs, s, b) ->
                Printf.sprintf "%s %s %d"
                  (String.concat "," (List.map string_of_int cs))
                  (match s with 0 -> "<=" | 1 -> ">=" | _ -> "=")
                  b)
              rows))
        (String.concat "," (List.map string_of_int obj))
        (if maximize then "max" else "min"))

let build_ilp (lbs, rows, obj, maximize) =
  let m = M.create () in
  let xs =
    Array.of_list
      (List.mapi
         (fun i lb ->
           M.add_var m ~kind:M.Integer ~lb:(Q.of_int lb) ~ub:(Q.of_int (lb + 6))
             (Printf.sprintf "x%d" i))
         lbs)
  in
  List.iter
    (fun (cs, s, b) ->
      let e = E.sum (List.mapi (fun i c -> E.iterm c xs.(i)) cs) in
      let sense = match s with 0 -> M.Le | 1 -> M.Ge | _ -> M.Eq in
      M.add_constr m e sense (E.of_int b))
    rows;
  M.set_objective m
    (if maximize then `Maximize else `Minimize)
    (E.sum (List.mapi (fun i c -> E.iterm c xs.(i)) obj));
  m

(* Exact optimum of a boxed ILP [m] by enumeration: every point of
   arb_ilp's box [lb, lb + 6] per variable (at most 7^4) is checked in
   rational arithmetic. [None] when no point is feasible. Objectives are
   returned in natural sense. *)
let brute_force_ilp m =
  let nvars = M.var_count m in
  let dir, obj = M.objective m in
  let maximize = dir = `Maximize in
  let point = Array.make nvars 0 in
  let value v = Q.add (M.var_lb m v) (Q.of_int point.(v)) in
  let best = ref None in
  let rec enum i =
    if i = nvars then begin
      if M.check_feasible_exact m value = [] then begin
        let o = E.eval value obj in
        match !best with
        | Some b when (if maximize then Q.compare o b <= 0 else Q.compare o b >= 0) -> ()
        | Some _ | None -> best := Some o
      end
    end
    else
      for x = 0 to 6 do
        point.(i) <- x;
        enum (i + 1)
      done
  in
  enum 0;
  !best

let prop_presolve_preserves_optimum =
  QCheck.Test.make ~name:"presolve preserves the ILP optimum" ~count:120 arb_ilp
    (fun spec ->
      let m = build_ilp spec in
      match (Lp.Presolve.run m, brute_force_ilp m) with
      | Lp.Presolve.Proved_infeasible, best -> best = None
      | Lp.Presolve.Reduced { model; _ }, best -> (
        let r = BB.solve model in
        match (best, r.BB.status, r.BB.objective) with
        | None, BB.Infeasible, None -> true
        | Some b, BB.Optimal, Some o -> Float.abs (o -. Q.to_float b) < 1e-6
        | _ -> false))

(* ---------- Branch and bound ---------- *)

let test_bb_knapsack () =
  let m = M.create () in
  let xs = Array.init 4 (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  let w = [| 5; 7; 4; 3 |] and p = [| 8; 11; 6; 4 |] in
  M.add_constr m
    (E.sum (List.init 4 (fun i -> E.iterm w.(i) xs.(i))))
    M.Le (E.of_int 14);
  M.set_objective m `Maximize (E.sum (List.init 4 (fun i -> E.iterm p.(i) xs.(i))));
  let r = BB.solve m in
  check bool "optimal" true (r.BB.status = BB.Optimal);
  (match r.BB.objective with
   | Some obj -> check flt "objective 21" 21.0 obj
   | None -> Alcotest.fail "no objective");
  check bool "gap zero" true (r.BB.gap = Some 0.0)

(* Root presolve and the search work on their own model: a singleton row
   (a bound for presolve), a redundant row and a warm start leave the
   model given to [solve] as it was. *)
let test_bb_leaves_input () =
  let m = M.create () in
  let xs = Array.init 4 (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  let w = [| 5; 7; 4; 3 |] and p = [| 8; 11; 6; 4 |] in
  M.add_constr m
    (E.sum (List.init 4 (fun i -> E.iterm w.(i) xs.(i))))
    M.Le (E.of_int 14);
  M.add_constr m (E.var xs.(3)) M.Le (E.of_int 0);
  M.add_constr m (E.sum (Array.to_list (Array.map E.var xs))) M.Le (E.of_int 4);
  M.set_objective m `Maximize (E.sum (List.init 4 (fun i -> E.iterm p.(i) xs.(i))));
  let before = Format.asprintf "%a" M.pp m in
  let r = BB.solve ~warm_start:[| 0.0; 1.0; 0.0; 0.0 |] m in
  check bool "optimal" true (r.BB.status = BB.Optimal);
  check (Alcotest.option flt) "objective 19" (Some 19.0) r.BB.objective;
  check Alcotest.string "input unchanged" before (Format.asprintf "%a" M.pp m)

let test_bb_integer_infeasible () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "x" in
  M.add_constr m (E.iterm 2 x) M.Eq (E.of_int 1);
  let r = BB.solve m in
  check bool "infeasible" true (r.BB.status = BB.Infeasible)

let test_bb_unbounded () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer "x" in
  M.set_objective m `Maximize (E.var x);
  let r = BB.solve m in
  check bool "unbounded" true (r.BB.status = BB.Unbounded)

let test_bb_warm_start () =
  let m = M.create () in
  let xs = Array.init 3 (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  M.add_constr m (E.sum (Array.to_list (Array.map E.var xs))) M.Le (E.of_int 2);
  M.set_objective m `Maximize (E.sum (Array.to_list (Array.map E.var xs)));
  let warm = [| 1.0; 1.0; 0.0 |] in
  let r = BB.solve ~warm_start:warm m in
  (match r.BB.objective with
   | Some obj -> check flt "optimum found" 2.0 obj
   | None -> Alcotest.fail "no objective")

(* A warm start must hold one value per model variable. *)
let test_bb_warm_start_length () =
  let m = M.create () in
  let x = M.add_var m ~kind:M.Binary "x" in
  M.set_objective m `Maximize (E.var x);
  Alcotest.check_raises "length checked"
    (Invalid_argument "Branch_bound.solve: warm start length") (fun () ->
      ignore (BB.solve ~warm_start:[||] m))

let test_bb_node_limit () =
  (* A tiny node limit must still return the warm-start incumbent. *)
  let m = M.create () in
  let xs = Array.init 6 (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  M.add_constr m
    (E.sum (List.init 6 (fun i -> E.iterm (i + 3) xs.(i))))
    M.Le (E.of_int 11);
  M.set_objective m `Maximize (E.sum (Array.to_list (Array.map E.var xs)));
  let warm = [| 1.0; 1.0; 0.0; 0.0; 0.0; 0.0 |] in
  let options = { BB.default_options with BB.node_limit = Some 1 } in
  let r = BB.solve ~options ~warm_start:warm m in
  check bool "has incumbent" true (r.BB.values <> None);
  check bool "not proved optimal" true (r.BB.status <> BB.Infeasible)

(* A time limit that stops the search before the root relaxation finishes
   leaves the warm-start incumbent and no bound: the gap is unknown, not
   infinite. *)
let test_bb_root_aborted_gap () =
  let m = M.create () in
  let xs = Array.init 6 (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  M.add_constr m
    (E.sum (Array.to_list (Array.mapi (fun i x -> E.iterm (i + 2) x) xs)))
    M.Le (E.of_int 9);
  M.set_objective m `Maximize
    (E.sum (Array.to_list (Array.mapi (fun i x -> E.iterm (7 - i) x) xs)));
  let warm = [| 1.0; 1.0; 0.0; 0.0; 0.0; 0.0 |] in
  let options = { BB.default_options with BB.time_limit = Some 1e-9 } in
  let r = BB.solve ~options ~warm_start:warm m in
  check bool "feasible" true (r.BB.status = BB.Feasible);
  check bool "no gap" true (r.BB.gap = None)

(* A time limit ends the search between relaxations, not inside one: the
   kernel deadline ([lp.simplex.deadline_aborts]) is for runaway
   relaxations, not routine budget exhaustion. A stepped clock (1 ms per
   read) makes the stopping point reproducible. The knapsack is large enough
   that its tree cannot be searched inside the budget even with the
   objective step pruning (56 items; 24 would finish). *)
let test_bb_time_limit_no_deadline_aborts () =
  let n = 56 in
  let m = M.create () in
  let xs = Array.init n (fun i -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) in
  let weight i = 20 + ((i * 37) mod 23) in
  M.add_constr m
    (E.sum (List.init n (fun i -> E.iterm (weight i) xs.(i))))
    M.Le (E.of_int 702);
  M.set_objective m `Maximize
    (E.sum (List.init n (fun i -> E.iterm (weight i + 7) xs.(i))));
  let ticks = Atomic.make 0 in
  Telemetry.Clock.set_source (fun () ->
      float_of_int (Atomic.fetch_and_add ticks 1) *. 1e-3);
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ();
      Telemetry.Clock.use_wall_clock ())
    (fun () ->
      let options =
        { BB.default_options with BB.time_limit = Some 1.0 }
      in
      let r = BB.solve ~options m in
      check bool "stopped mid-tree" true
        (r.BB.nodes > 0 && r.BB.status <> BB.Optimal);
      check int_t "no deadline aborts" 0
        (Telemetry.counter_value "lp.simplex.deadline_aborts"))

let test_bb_minimize () =
  (* min 3x + 4y st x + 2y >= 7, ints -> x=1 y=3: 15  or x=7 y=0: 21; optimum
     x=1,y=3 = 15?  check: x+2y>=7 minimise 3x+4y: try y=3,x=1 -> 15; y=2,x=3
     -> 17; y=4 x=0 -> 16. So 15. *)
  let m = M.create () in
  let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "x" in
  let y = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 10) "y" in
  M.add_constr m (E.add (E.var x) (E.iterm 2 y)) M.Ge (E.of_int 7);
  M.set_objective m `Minimize (E.add (E.iterm 3 x) (E.iterm 4 y));
  let r = BB.solve m in
  match r.BB.objective with
  | Some obj -> check flt "minimum 15" 15.0 obj
  | None -> Alcotest.fail "no objective"

(* The objective step applies only when every objective term is an integer
   variable with an integer coefficient. Each model below maximises x + c y
   with the optimum 3.5 at x = 3; seeded with x = 3, y = 0 (objective 3), a
   step of 1 would prune the root, whose bound 3.5 is within 1 of it. *)
let test_bb_objective_step_needs_integer_terms () =
  let optimum kind ~ub ~coeff =
    let m = M.create () in
    let x = M.add_var m ~kind:M.Integer ~ub:(Q.of_int 3) "x" in
    let y = M.add_var m ~kind ~ub "y" in
    M.set_objective m `Maximize (E.add (E.var x) (E.term coeff y));
    match (BB.solve ~warm_start:[| 3.0; 0.0 |] m).BB.objective with
    | Some obj -> obj
    | None -> Alcotest.fail "no objective"
  in
  check flt "continuous variable" 3.5
    (optimum M.Continuous ~ub:(Q.of_ints 1 2) ~coeff:Q.one);
  check flt "fractional coefficient" 3.5
    (optimum M.Integer ~ub:Q.one ~coeff:(Q.of_ints 1 2))

(* brute force 0/1 knapsack comparison *)
let arb_knapsack =
  let gen =
    QCheck.Gen.(
      int_range 2 8 >>= fun n ->
      list_size (return n) (pair (int_range 1 9) (int_range 1 9)) >>= fun items ->
      int_range 5 25 >>= fun capacity -> return (items, capacity))
  in
  QCheck.make gen ~print:(fun (items, cap) ->
      Printf.sprintf "cap=%d items=%s" cap
        (String.concat ";" (List.map (fun (w, p) -> Printf.sprintf "%d/%d" w p) items)))

let brute_knapsack items capacity =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0 and p = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w + fst arr.(i);
        p := !p + snd arr.(i)
      end
    done;
    if !w <= capacity && !p > !best then best := !p
  done;
  !best

(* A common profit factor [k] gives the objective a step of [k] times the
   gcd of the profits, so the derived pruning step above 1 is checked too. *)
let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch-and-bound solves knapsacks exactly" ~count:100
    (QCheck.pair arb_knapsack (QCheck.int_range 1 5))
    (fun ((items, capacity), k) ->
      let items = List.map (fun (w, p) -> (w, k * p)) items in
      let m = M.create () in
      let xs =
        List.mapi (fun i _ -> M.add_var m ~kind:M.Binary (Printf.sprintf "x%d" i)) items
      in
      M.add_constr m
        (E.sum (List.map2 (fun x (w, _) -> E.iterm w x) xs items))
        M.Le (E.of_int capacity);
      M.set_objective m `Maximize
        (E.sum (List.map2 (fun x (_, p) -> E.iterm p x) xs items));
      let r = BB.solve m in
      match r.BB.objective with
      | Some obj ->
        Float.abs (obj -. float_of_int (brute_knapsack items capacity)) < 1e-6
      | None -> false)

(* Without a time limit the search never reads the clock to decide
   anything, so a node-budgeted run is bit-identical whether the clock is
   the wall clock or one that jumps 1000 s per read: a tiny node limit
   forces most runs to stop mid-tree. *)
let prop_bb_budget_independent_of_clock =
  QCheck.Test.make ~name:"node-budgeted search is independent of the clock"
    ~count:60 arb_ilp (fun spec ->
      let solve () =
        BB.solve
          ~options:{ BB.default_options with BB.node_limit = Some 7 }
          (build_ilp spec)
      in
      let wall = solve () in
      let reads = ref 0 in
      Telemetry.Clock.set_source (fun () ->
          incr reads;
          float_of_int !reads *. 1000.0);
      let jumping =
        Fun.protect ~finally:Telemetry.Clock.use_wall_clock solve
      in
      wall.BB.status = jumping.BB.status
      && wall.BB.objective = jumping.BB.objective
      && wall.BB.values = jumping.BB.values
      && wall.BB.nodes = jumping.BB.nodes)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "lp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basic" `Quick test_linexpr_basic;
          Alcotest.test_case "cancellation" `Quick test_linexpr_cancellation;
          Alcotest.test_case "eval" `Quick test_linexpr_eval;
          Alcotest.test_case "scale/map" `Quick test_linexpr_scale_map;
        ] );
      ( "model",
        [
          Alcotest.test_case "basics" `Quick test_model_basics;
          Alcotest.test_case "unknown var" `Quick test_model_unknown_var;
          Alcotest.test_case "check_feasible" `Quick test_model_check_feasible;
          Alcotest.test_case "check_feasible_exact" `Quick test_model_check_feasible_exact;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "optimal" `Quick test_simplex_optimal;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "equality + free vars" `Quick test_simplex_equality_and_free;
          Alcotest.test_case "negative bounds" `Quick test_simplex_negative_bounds;
          Alcotest.test_case "fixed var" `Quick test_simplex_fixed_var;
          Alcotest.test_case "crossed bounds" `Quick test_simplex_crossed_bounds;
          Alcotest.test_case "degenerate (Beale)" `Quick test_simplex_degenerate;
          Alcotest.test_case "iteration limit" `Quick test_simplex_iteration_limit;
          Alcotest.test_case "bounds length" `Quick test_simplex_bounds_length;
          Alcotest.test_case "singular basis" `Quick test_tableau_singular_basis;
          Alcotest.test_case "singular warm basis leaves the store clean" `Quick
            test_singular_warm_basis_leaves_store_clean;
          Alcotest.test_case "warm scratch never leaks" `Quick
            test_warm_scratch_never_leaks;
          Alcotest.test_case "column row out of range" `Quick
            test_columns_row_out_of_range;
          Alcotest.test_case "zero-span column never basic" `Quick
            test_zero_span_never_basic;
          Alcotest.test_case "unfixing a fixed variable is a warm hit" `Quick
            test_unfixing_is_a_warm_hit;
          Alcotest.test_case "warm start of another model" `Quick
            test_warm_start_of_another_model;
          Alcotest.test_case "a stale basis translates nothing" `Quick
            test_stale_basis_translates_nothing;
          Alcotest.test_case "warm re-solve refactorises mid dual phase" `Quick
            test_warm_refactorises_mid_dual_phase;
        ] );
      ( "simplex-props",
        qsuite
          [
            prop_exact_matches_float;
            prop_held_form_matches_translation;
            prop_warm_resolve_matches_cold;
            prop_warm_chain_matches_cold;
            prop_sibling_resolves_share_factor;
            prop_columns_row_copy_is_transpose;
            prop_workspace_never_leaks;
            prop_fallback_is_the_cold_solve;
            prop_wide_node_warm_matches_cold;
            prop_bump_orderings_agree;
            prop_changes_match_shifted_form;
            prop_factor_matches_dense;
          ]
        @ [ test_warm_chain_regression_seed ] );
      ( "presolve",
        [
          Alcotest.test_case "tightens bounds" `Quick test_presolve_tightens;
          Alcotest.test_case "integer rounding" `Quick test_presolve_integer_rounding;
          Alcotest.test_case "proves infeasible" `Quick test_presolve_infeasible;
          Alcotest.test_case "leaves its input unchanged" `Quick
            test_presolve_leaves_input;
          Alcotest.test_case "deadline stops between rows" `Quick
            test_presolve_deadline_stops;
        ] );
      ("presolve-props", qsuite [ prop_presolve_preserves_optimum ]);
      ( "branch-bound",
        [
          Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
          Alcotest.test_case "leaves its input unchanged" `Quick test_bb_leaves_input;
          Alcotest.test_case "integer infeasible" `Quick test_bb_integer_infeasible;
          Alcotest.test_case "unbounded" `Quick test_bb_unbounded;
          Alcotest.test_case "warm start" `Quick test_bb_warm_start;
          Alcotest.test_case "warm start length" `Quick test_bb_warm_start_length;
          Alcotest.test_case "node limit keeps incumbent" `Quick test_bb_node_limit;
          Alcotest.test_case "minimisation" `Quick test_bb_minimize;
          Alcotest.test_case "objective step needs integer terms" `Quick
            test_bb_objective_step_needs_integer_terms;
          Alcotest.test_case "root aborted: no gap" `Quick test_bb_root_aborted_gap;
          Alcotest.test_case "time limit: no deadline aborts" `Quick
            test_bb_time_limit_no_deadline_aborts;
        ] );
      ( "bb-props",
        qsuite
          [
            prop_bb_matches_brute_force;
            prop_bb_budget_independent_of_clock;
          ] );
    ]
