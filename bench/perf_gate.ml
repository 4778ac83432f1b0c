(* CI perf gate over `bench/main.exe table2 --json` artifacts.

     perf_gate BASELINE.json CURRENT.json
     perf_gate --same A.json B.json

   Compares the current run against the checked-in baseline and exits
   nonzero on regression; every check runs (a readable per-check report
   plus a solver-counter diff table), not just the first mismatch. The
   rules, and why each is machine-independent:

   - per table-2 case, `ours.fixed_minutes` and `ours.weighted` must not
     exceed the baseline's: the heuristic path is deterministic, so any
     increase is a real quality regression (no tolerance; improvements
     pass, and should prompt a baseline refresh);
   - `lp.simplex.deadline_aborts` must not exceed the baseline's (0): an
     abort means a single LP relaxation outlived the whole per-layer
     budget, which only a pathological solver produces, however slow the
     machine — routine budget exhaustion stops between relaxations and is
     not counted;
   - the ILP leg's `weighted` must not exceed the baseline *heuristic*
     weighted for the same case: the branch-and-bound incumbent depends on
     how many nodes fit the time budget, so comparing ILP-to-ILP across
     machines would be flaky, but the layer solver only ever accepts
     strict improvements over the heuristic, so "no worse than the
     deterministic heuristic" holds on any machine;
   - the ILP leg's work counters must equal the baseline's exactly:
     `lp.bb.nodes`, `warm_hits`, `warm_fallbacks`, `pruned_by_bound`,
     `lp.simplex.solves` (cold solves: one per root and one per stale
     warm basis), `warm_solves`, `pivots`, `dual_pivots`, `bound_flips`,
     `btrans`, `ftrans`, `refactorisations`, `factor_reuses` and every
     `lp.presolve.*` counter. The leg runs the deterministic wave search
     under a node budget with no time limit, on one domain, so the explored
     tree, every pivot and which sibling re-solve computes a snapshot's
     factor depend only on the code, never on the machine. A change that
     moves any of these changes the search and must refresh the baseline
     and say why;
   - warm starts must be alive: `lp.bb.warm_hits` > 0 whenever the
     baseline has any, and the warm-hit *rate*
     hits / (hits + fallbacks) must be at least half the baseline's rate.
     The exact check above already pins both counts; this one stays
     because its message names the failure: halving the baseline rate
     means the dual re-solve path is going stale on models it used to
     repair — a real solver regression;
   - node throughput: the mean of the `lp.bb.nodes_per_sec` histogram must
     be at least 1/4 of the baseline's. This is the one machine-dependent
     check, hence the wide 4x tolerance: CI machines are slower than dev
     machines, but the regressions this exists to catch (e.g. a dual ratio
     test that re-prices per bound flip) are order-of-magnitude;
   - presolve must have fired: `lp.presolve.rows_removed` and
     `lp.presolve.cols_fixed` nonzero in the current telemetry;
   - wall-clock fields are ignored entirely.

   The diff table also prints, below the gated counters, the size of the
   standard forms translated (`lp.simplex.rows`, `cols` and `nnz`: one
   form per branch-and-bound search) and the kernel's sparsity counters:
   `lp.simplex.phase1_pivots`, `lp.simplex.rho_nnz`,
   `lp.simplex.pivot_row_nnz`, `lp.simplex.chuzr_rows` (the rows the
   dual phase's leaving-row choice reads) and the sample sums of the
   `lp.simplex.factor_nnz` and `lp.simplex.bump_cols` histograms. They
   are informational and gate nothing: they describe the forms and how
   sparse the kernel's work is, not what it computes.

   `--same A.json B.json` is the run-to-run determinism gate: it deep
   compares the two artifacts' `cases` and `ilp` sections — the solver
   results — ignoring the timing fields (`runtime_seconds`, `exe_time`,
   `wall_seconds`) and the `meta`/`telemetry` sections (wall times and
   throughput are machine noise; the baseline comparison above gates the
   counters). CI runs it between the baseline and the current
   artifact and requires identical results.

   The baseline is regenerated with:
     dune exec bench/main.exe -- table2 --json bench/baseline.json

   Telemetry.Json is a serialiser only, so this file carries its own
   minimal JSON reader (objects, arrays, strings, numbers, true/false/null;
   enough for the bench artifact — not a general-purpose parser). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           (* artifact strings are ASCII; decode the escape to '?' rather
              than carrying a UTF-16 decoder *)
           for _ = 1 to 4 do advance () done;
           Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        advance ();
        go ()
      | '\255' -> fail "unterminated string"
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numchar (peek ()) do advance () done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((key, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); Arr [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------- artifact accessors *)

let member key = function
  | Obj fields -> (try List.assoc key fields with Not_found -> Null)
  | _ -> Null

let as_int = function Num f -> int_of_float f | _ -> 0
let as_float = function Num f -> f | _ -> 0.0
let as_str = function Str s -> s | _ -> ""
let as_list = function Arr l -> l | _ -> []

let cases doc =
  List.map (fun c -> (as_str (member "label" c), c)) (as_list (member "cases" doc))

let counter doc name =
  let rec find = function
    | [] -> 0
    | c :: rest -> if as_str (member "name" c) = name then as_int (member "value" c) else find rest
  in
  find (as_list (member "counters" (member "telemetry" doc)))

let counter_names doc =
  List.map (fun c -> as_str (member "name" c)) (as_list (member "counters" (member "telemetry" doc)))

let hist_field field doc name =
  let rec find = function
    | [] -> 0.0
    | h :: rest ->
      if as_str (member "name" h) = name then as_float (member field h)
      else find rest
  in
  find (as_list (member "histograms" (member "telemetry" doc)))

let hist_mean = hist_field "mean"

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  match parse content with
  | v -> v
  | exception Parse_error msg ->
    Printf.eprintf "perf_gate: %s: %s\n" path msg;
    exit 2

(* ------------------------------------------------------------- checks *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "ok    %s\n" msg
      else begin
        incr failures;
        Printf.printf "FAIL  %s\n" msg
      end)
    fmt

(* ------------------------------------------------------- --same mode *)

(* Deep structural diff of the solver-result sections, with timing fields
   masked out. Reports every difference with its JSON path. *)
let timing_field = function
  | "runtime_seconds" | "exe_time" | "wall_seconds" -> true
  | _ -> false

let rec diff_json path a b diffs =
  match (a, b) with
  | Obj fa, Obj fb ->
    let keys =
      List.sort_uniq compare (List.map fst fa @ List.map fst fb)
    in
    List.fold_left
      (fun acc k ->
        if timing_field k then acc
        else
          diff_json (path ^ "." ^ k) (member k (Obj fa)) (member k (Obj fb)) acc)
      diffs keys
  | Arr xa, Arr xb when List.length xa = List.length xb ->
    let rec go i xs ys acc =
      match (xs, ys) with
      | x :: xs', y :: ys' ->
        go (i + 1) xs' ys' (diff_json (Printf.sprintf "%s[%d]" path i) x y acc)
      | _, _ -> acc
    in
    go 0 xa xb diffs
  | Arr xa, Arr xb ->
    (Printf.sprintf "%s: array length %d vs %d" path (List.length xa)
       (List.length xb))
    :: diffs
  | _ ->
    let rec show = function
      | Null -> "null"
      | Bool b -> string_of_bool b
      | Num f -> Printf.sprintf "%g" f
      | Str s -> Printf.sprintf "%S" s
      | Arr l -> Printf.sprintf "[%s]" (String.concat "," (List.map show l))
      | Obj _ -> "{...}"
    in
    if a = b then diffs else Printf.sprintf "%s: %s vs %s" path (show a) (show b) :: diffs

let same_mode path_a path_b =
  let a = load path_a and b = load path_b in
  let pick doc = Obj [ ("cases", member "cases" doc); ("ilp", member "ilp" doc) ] in
  let diffs = List.rev (diff_json "$" (pick a) (pick b) []) in
  if diffs = [] then begin
    Printf.printf "same: %s and %s agree on all solver results\n" path_a path_b;
    exit 0
  end
  else begin
    Printf.printf "same: %d difference(s) between %s and %s:\n"
      (List.length diffs) path_a path_b;
    List.iter (fun d -> Printf.printf "  %s\n" d) diffs;
    exit 1
  end

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; "--same"; a; b |] -> same_mode a b
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline
        "usage: perf_gate BASELINE.json CURRENT.json | perf_gate --same A.json B.json";
      exit 2
  in
  let baseline = load baseline_path in
  let current = load current_path in
  let cur_cases = cases current in
  List.iter
    (fun (label, base_case) ->
      match List.assoc_opt label cur_cases with
      | None -> check false "case %S present" label
      | Some cur_case ->
        let metric name =
          ( as_int (member name (member "ours" cur_case)),
            as_int (member name (member "ours" base_case)) )
        in
        let cur_mk, base_mk = metric "fixed_minutes" in
        let cur_w, base_w = metric "weighted" in
        check (cur_mk <= base_mk) "%S makespan %dm <= baseline %dm" label cur_mk base_mk;
        check (cur_w <= base_w) "%S weighted %d <= baseline %d" label cur_w base_w)
    (cases baseline);
  let cur_aborts = counter current "lp.simplex.deadline_aborts" in
  let base_aborts = counter baseline "lp.simplex.deadline_aborts" in
  check (cur_aborts <= base_aborts) "deadline aborts %d <= baseline %d" cur_aborts
    base_aborts;
  (match (member "ilp" current, cases baseline) with
   | Null, _ -> check false "ILP leg present in current artifact"
   | ilp, (_, first_base) :: _ ->
     let w = as_int (member "weighted" ilp) in
     let heur_w = as_int (member "weighted" (member "ours" first_base)) in
     check (w > 0 && w <= heur_w) "ILP weighted %d <= baseline heuristic %d" w heur_w
   | _, [] -> check false "baseline has cases");
  let rows_removed = counter current "lp.presolve.rows_removed" in
  let cols_fixed = counter current "lp.presolve.cols_fixed" in
  check (rows_removed > 0) "presolve removed rows (%d)" rows_removed;
  check (cols_fixed > 0) "presolve fixed columns (%d)" cols_fixed;
  (* Work counters of the node-budgeted ILP leg: exact; see header. The
     diff table below prints them with the deadline aborts. *)
  let work_counters =
    [
      "lp.bb.nodes";
      "lp.bb.warm_hits";
      "lp.bb.warm_fallbacks";
      "lp.bb.pruned_by_bound";
      "lp.simplex.solves";
      "lp.simplex.warm_solves";
      "lp.simplex.pivots";
      "lp.simplex.dual_pivots";
      "lp.simplex.bound_flips";
      "lp.simplex.btrans";
      "lp.simplex.ftrans";
      "lp.simplex.refactorisations";
      "lp.simplex.factor_reuses";
    ]
  in
  (* Solver-counter diff table: context for the checks below, printed for
     every run so a failure report is self-contained. *)
  Printf.printf "\n%-32s %12s %12s %8s\n" "counter" "baseline" "current" "ratio";
  Printf.printf "%s\n" (String.make 68 '-');
  let row name b c =
    let ratio =
      if b = 0 then (if c = 0 then "-" else "new")
      else Printf.sprintf "%.2f" (float_of_int c /. float_of_int b)
    in
    Printf.printf "%-32s %12d %12d %8s\n" name b c ratio
  in
  List.iter
    (fun name -> row name (counter baseline name) (counter current name))
    (work_counters @ [ "lp.simplex.deadline_aborts" ]);
  (* Informational form-size and sparsity counters, not gated; see header. *)
  Printf.printf "%s\n" (String.make 68 '-');
  List.iter
    (fun name -> row name (counter baseline name) (counter current name))
    [
      "lp.simplex.rows";
      "lp.simplex.cols";
      "lp.simplex.nnz";
      "lp.simplex.phase1_pivots";
      "lp.simplex.rho_nnz";
      "lp.simplex.pivot_row_nnz";
      "lp.simplex.chuzr_rows";
    ];
  List.iter
    (fun name ->
      let sum doc = int_of_float (hist_field "sum" doc name) in
      row (name ^ " (sum)") (sum baseline) (sum current))
    [ "lp.simplex.factor_nnz"; "lp.simplex.bump_cols" ];
  Printf.printf "\n";
  let is_presolve name =
    String.length name > 12 && String.sub name 0 12 = "lp.presolve."
  in
  let exact_counters =
    work_counters
    @ List.sort_uniq compare
        (List.filter is_presolve (counter_names baseline @ counter_names current))
  in
  List.iter
    (fun name ->
      let b = counter baseline name and c = counter current name in
      check (c = b) "%s %d = baseline %d" name c b)
    exact_counters;
  (* Warm-start health: rate is machine-independent; see header. *)
  let rate doc =
    let h = counter doc "lp.bb.warm_hits" in
    let f = counter doc "lp.bb.warm_fallbacks" in
    if h + f = 0 then 0.0 else float_of_int h /. float_of_int (h + f)
  in
  let base_hits = counter baseline "lp.bb.warm_hits" in
  if base_hits > 0 then begin
    let cur_hits = counter current "lp.bb.warm_hits" in
    check (cur_hits > 0) "warm starts alive (hits %d)" cur_hits;
    let br = rate baseline and cr = rate current in
    check
      (cr >= 0.5 *. br)
      "warm-hit rate %.3f >= half of baseline %.3f" cr br
  end;
  (* Node throughput: machine-dependent, wide 4x tolerance; see header. *)
  let base_nps = hist_mean baseline "lp.bb.nodes_per_sec" in
  if base_nps > 0.0 then begin
    let cur_nps = hist_mean current "lp.bb.nodes_per_sec" in
    check
      (cur_nps >= 0.25 *. base_nps)
      "nodes/sec %.1f >= 1/4 of baseline %.1f" cur_nps base_nps
  end;
  if !failures > 0 then begin
    Printf.printf "\nperf gate: %d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "\nperf gate: all checks passed"
