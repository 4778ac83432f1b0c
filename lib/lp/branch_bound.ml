module Q = Numeric.Rat

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type result = {
  status : status;
  objective : float option;
  values : float array option;
  nodes : int;
  elapsed : float;
  gap : float option;
}

type options = {
  time_limit : float option;
  node_limit : int option;
  presolve : bool;
  domains : int;
  deterministic : bool;
}

(* Integrality tolerance for branching and for rounding candidates. *)
let int_tol = 1e-6

let default_options =
  {
    time_limit = None;
    node_limit = None;
    presolve = true;
    domains = 1;
    deterministic = false;
  }

(* A search node: its branchings against the search's form, newest first
   ([[]] at the root), whose tail is its parent's list and nothing else of
   it, so no node keeps an ancestor's warm snapshot alive; the warm start
   its parent's relaxation offered ([None] at the root; siblings share
   it); and the parent's relaxation bound (a valid lower bound on the
   whole subtree, merged into [best_bound] when the node is discarded at a
   limit). *)
type node = {
  nd_branchings : (Model.var * Q.t * Q.t option) list;
  nd_warm : Simplex.warm option;
  nd_bound : float;
}

(* Search state. *)
type shared = {
  opts : options;
  model : Model.t;
  dir_sign : float; (* +1 minimize, -1 maximize: internal obj = natural * dir_sign *)
  obj_step : float option;
      (* the objective's granularity on integer points, when it has one *)
  int_vars : int array;
  deadline : float option;
  mutable relax_ema : float; (* moving average of relaxation seconds *)
  mutable out_of_time : bool; (* the time left cannot fit a relaxation *)
  mutable incumbent : (float * float array) option;
      (* internal-sense objective + rounded values *)
  mutable best_bound : float; (* lowest open relaxation bound at a cut-off *)
  mutable nodes : int;
  mutable proven : bool; (* search space fully explored *)
  mutable stop : bool;
  mutable unbounded : bool;
}

let now () = Telemetry.Clock.now_s ()
let keep_bound sh b = if b < sh.best_bound then sh.best_bound <- b

let halt sh =
  sh.proven <- false;
  sh.stop <- true

(* A node pruned by bound; its bound is the tightest open one for the gap. *)
let prune sh b =
  Telemetry.count "lp.bb.pruned_by_bound";
  keep_bound sh b

let fractionality x = Float.abs (x -. Float.round x)

(* Branching variable, or None when integral: the most fractional binary
   if any (fixing a disjunction/assignment binary collapses its big-M rows,
   while branching on a general integer barely moves the relaxation), else
   the most fractional general integer. *)
let pick_branch sh values =
  let best_bin = ref (-1) and best_bin_frac = ref int_tol in
  let best_gen = ref (-1) and best_gen_frac = ref int_tol in
  let consider v =
    let f = fractionality values.(v) in
    if Model.var_kind sh.model v = Model.Binary then begin
      if f > !best_bin_frac then begin
        best_bin := v;
        best_bin_frac := f
      end
    end
    else if f > !best_gen_frac then begin
      best_gen := v;
      best_gen_frac := f
    end
  in
  Array.iter consider sh.int_vars;
  if !best_bin >= 0 then Some !best_bin
  else if !best_gen >= 0 then Some !best_gen
  else None

(* Tie-break for equal-objective incumbents: the lexicographically smaller
   point wins, so the incumbent does not depend on the order in which
   equal-objective points are found. *)
let lex_lt a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let try_incumbent sh values internal_obj =
  (* Round near-integral values exactly before the feasibility re-check. *)
  let rounded = Array.copy values in
  Array.iter
    (fun v ->
      if fractionality rounded.(v) <= int_tol then
        rounded.(v) <- Float.round rounded.(v))
    sh.int_vars;
  Model.check_feasible sh.model ~tol:1e-5 (fun v -> rounded.(v)) = []
  && begin
    let better =
      match sh.incumbent with
      | None -> true
      | Some (obj, vals) ->
        internal_obj < obj -. 1e-9
        || (Float.abs (internal_obj -. obj) <= 1e-9 && lex_lt rounded vals)
    in
    if better then begin
      sh.incumbent <- Some (internal_obj, rounded);
      Telemetry.count "lp.bb.incumbents";
      Telemetry.observe "lp.bb.incumbent_obj" (sh.dir_sign *. internal_obj)
    end;
    true
  end

(* The objective's step on integer points: when every term is an integer
   variable with an integer coefficient, the objectives of two integer
   points differ by a multiple of the coefficients' gcd. *)
let objective_step model =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let term v c g =
    match (g, Numeric.Bigint.to_int_opt (Q.num c)) with
    | Some g, Some k when Model.is_integer_var model v && Q.is_integer c ->
      Some (gcd g (abs k))
    | _ -> None
  in
  match Linexpr.fold term (snd (Model.objective model)) (Some 0) with
  | Some g when g > 0 -> Some (Float.of_int g)
  | Some _ | None -> None

let cutoff sh =
  let inc = match sh.incumbent with Some (o, _) -> o | None -> infinity in
  (* A node whose bound is within one objective step of the incumbent cannot
     contain a strictly better integer point. *)
  match sh.obj_step with
  | Some step -> inc -. step +. 1e-6
  | None -> inc -. 1e-9

(* Branchings of the two children of branching [v] at fractional value
   [x], the near child first: each changes one bound of [v]'s newest. *)
let branch_bounds sh nd v x =
  let fl = Float.of_int (int_of_float (Float.floor x)) in
  let lb_v, ub_v =
    match List.find_opt (fun (u, _, _) -> u = v) nd.nd_branchings with
    | Some (_, l, u) -> (l, u)
    | None -> (Model.var_lb sh.model v, Model.var_ub sh.model v)
  in
  let down = (v, lb_v, Some (Q.of_float_approx fl)) :: nd.nd_branchings in
  let up = (v, Q.of_float_approx (fl +. 1.0), ub_v) :: nd.nd_branchings in
  let lo_first = x -. fl <= 0.5 in
  if lo_first then (down, up) else (up, down)

(* Stop cleanly when the remaining time cannot fit another relaxation of
   typical size ([relax_ema] seconds): the kernel deadline then only fires
   on a genuinely runaway relaxation — the pathology
   [lp.simplex.deadline_aborts] exists to count — not on routine budget
   exhaustion mid-pivot. Always false without a time limit, so
   node-budgeted searches never depend on the clock. *)
let budget_tight sh =
  match sh.deadline with
  | Some d -> d -. now () < Float.max 0.05 (4.0 *. sh.relax_ema)
  | None -> false

(* The search: one global stack of open nodes, processed in fixed-width
   waves. A wave's relaxations are solved in stack order, and only then
   are the outcomes settled — incumbent updates, pruning, child order — in
   the same order. A plain one-node depth-first search would explore a
   different tree, and would keep a parent's memoised factor alive until
   its far sibling runs, where a wave mostly solves siblings back to back
   and drops the factor with them. Nothing depends on timing, so a
   node-budgeted run is byte-identical on any machine; a wall-clock limit
   still stops the search, at a machine-dependent point. *)
let wave_width = 8

type wave_outcome =
  | W_skipped (* not started: the time left cannot fit a relaxation *)
  | W_abort (* the kernel deadline fired mid-relaxation *)
  | W_dropped of string (* the kernel gave up on the node: counter to bump *)
  | W_infeasible
  | W_unbounded
  | W_solved of float * float array * Simplex.warm

let solve_node sh form nd =
  if sh.out_of_time || budget_tight sh then begin
    sh.out_of_time <- true;
    W_skipped
  end
  else begin
    let t0 = now () in
    let outcome =
      match
        Simplex.solve ?deadline:sh.deadline ?warm:nd.nd_warm (Lazy.force form)
          nd.nd_branchings
      with
      | exception Tableau.Deadline_exceeded -> W_abort
      | exception Tableau.Iteration_limit -> W_dropped "lp.simplex.iteration_aborts"
      | exception Tableau.Singular -> W_dropped "lp.simplex.singular_aborts"
      | Simplex.Infeasible -> W_infeasible
      | Simplex.Unbounded -> W_unbounded
      | Simplex.Optimal { objective; values; warm } ->
        W_solved (sh.dir_sign *. objective, values, warm)
    in
    let dt = now () -. t0 in
    let ema = sh.relax_ema in
    sh.relax_ema <- (if ema <= 0.0 then dt else (0.8 *. ema) +. (0.2 *. dt));
    outcome
  end

(* Apply one outcome once its wave is solved; returns [children] with the node's
   children (far, then near) consed on. *)
let settle sh nd outcome children =
  match outcome with
  | W_skipped | W_abort ->
    (* out of time: abandon the search but keep any incumbent (e.g. the
       warm start) *)
    halt sh;
    keep_bound sh nd.nd_bound;
    children
  | W_dropped counter ->
    (* A relaxation that ran out of pivots or met a singular basis: drop
       only its subtree. The search goes on, but it no longer proves
       optimality, and the node's bound stays in the gap; a root dropped
       this way leaves no bound and, without a warm start, status
       [Unknown]. *)
    Telemetry.count counter;
    sh.proven <- false;
    keep_bound sh nd.nd_bound;
    children
  | W_infeasible -> children
  | W_unbounded ->
    (* An unbounded relaxation at the root means the MILP is unbounded or
       infeasible; deeper down it cannot happen if the root was bounded. *)
    if nd.nd_branchings = [] then begin
      sh.unbounded <- true;
      sh.stop <- true
    end;
    children
  | W_solved (internal, _, _) when internal >= cutoff sh ->
    prune sh internal;
    children
  | W_solved (internal, values, warm) -> (
    match pick_branch sh values with
    | None ->
      (* numerically integral but infeasible on re-check: give up on this
         node *)
      if not (try_incumbent sh values internal) then sh.proven <- false;
      children
    | Some v ->
      let near, far = branch_bounds sh nd v values.(v) in
      let child branchings =
        { nd_branchings = branchings; nd_warm = Some warm; nd_bound = internal }
      in
      child far :: child near :: children)

let search sh form root =
  let t0 = now () in
  let stack = ref [ root ] in
  let budget =
    ref (match sh.opts.node_limit with Some n -> n | None -> max_int)
  in
  (* take up to [k] nodes off the stack, accounting for those the incumbent
     already rules out (their parent's bound is past the cutoff) *)
  let rec take k acc = function
    | nd :: rest when k > 0 ->
      if nd.nd_bound >= cutoff sh then begin
        prune sh nd.nd_bound;
        take k acc rest
      end
      else take (k - 1) (nd :: acc) rest
    | rest -> (Array.of_list (List.rev acc), rest)
  in
  while !stack <> [] && not sh.stop do
    if !budget <= 0 then halt sh
    else begin
      let wave, rest = take (min wave_width !budget) [] !stack in
      budget := !budget - Array.length wave;
      let outcomes = Array.map (solve_node sh form) wave in
      Array.iter (fun o -> if o <> W_skipped then sh.nodes <- sh.nodes + 1) outcomes;
      let children = ref [] in
      Array.iteri (fun i o -> children := settle sh wave.(i) o !children) outcomes;
      stack := List.rev_append !children rest
    end;
    if sh.stop then begin
      List.iter (fun nd -> keep_bound sh nd.nd_bound) !stack;
      stack := []
    end
  done;
  let dt = now () -. t0 in
  if sh.nodes > 0 && dt > 0.0 then
    Telemetry.observe "lp.bb.nodes_per_sec" (float_of_int sh.nodes /. dt)

let solve ?(options = default_options) ?warm_start model =
  (match warm_start with
   | Some values when Array.length values <> Model.var_count model ->
     invalid_arg "Branch_bound.solve: warm start length"
   | Some _ | None -> ());
  Telemetry.span "lp.bb.solve" @@ fun () ->
  let started = now () in
  let dir, _ = Model.objective model in
  let dir_sign = match dir with `Minimize -> 1.0 | `Maximize -> -1.0 in
  let int_vars =
    Array.of_list
      (List.filter
         (fun v -> Model.is_integer_var model v)
         (List.init (Model.var_count model) Fun.id))
  in
  let sh =
    {
      opts = options;
      model;
      dir_sign;
      obj_step = objective_step model;
      int_vars;
      deadline = Option.map (fun t -> started +. t) options.time_limit;
      relax_ema = 0.0;
      out_of_time = false;
      incumbent = None;
      best_bound = infinity;
      nodes = 0;
      proven = true;
      stop = false;
      unbounded = false;
    }
  in
  (* The warm start is checked against the model as given, before
     presolve: duality fixing may cut it from the reduced model. *)
  (match warm_start with
   | Some values ->
     let obj = Model.eval_objective model (fun v -> values.(v)) in
     ignore (try_incumbent sh values (dir_sign *. obj))
   | None -> ());
  match
    Telemetry.span "lp.presolve.run" (fun () ->
        Presolve.run ?deadline:sh.deadline model)
  with
  | Presolve.Proved_infeasible ->
    let inc = sh.incumbent in
    {
      status = (if inc = None then Infeasible else Feasible);
      objective = Option.map (fun (o, _) -> dir_sign *. o) inc;
      values = Option.map snd inc;
      nodes = 0;
      elapsed = now () -. started;
      gap = None;
    }
  | Presolve.Reduced { model; changes = _ } -> begin
    let sh = { sh with model } in
    let root = { nd_branchings = []; nd_warm = None; nd_bound = neg_infinity } in
    (* the search's one form, translated by the root's relaxation: a search
       that is out of time before it translates nothing *)
    search sh (lazy (Simplex.form model)) root;
    let elapsed = now () -. started in
    let incumbent = sh.incumbent and proven = sh.proven in
    let objective = Option.map (fun (o, _) -> dir_sign *. o) incumbent in
    (* A root whose relaxation never finished leaves [best_bound] at the
       root's [neg_infinity]: there is no bound, so no gap to report. *)
    let gap =
      match (incumbent, proven) with
      | Some _, true -> Some 0.0
      | Some (i, _), false when Float.is_finite sh.best_bound ->
        Some (Float.abs (i -. sh.best_bound) /. Float.max 1e-9 (Float.abs i))
      | Some _, false | None, _ -> None
    in
    let status =
      if sh.unbounded then Unbounded
      else
        match (incumbent, proven) with
        | Some _, true -> Optimal
        | Some _, false -> Feasible
        | None, true -> Infeasible
        | None, false -> Unknown
    in
    Telemetry.count ~by:sh.nodes "lp.bb.nodes";
    (match gap with Some g -> Telemetry.observe "lp.bb.gap" g | None -> ());
    {
      status;
      objective;
      values = Option.map snd incumbent;
      nodes = sh.nodes;
      elapsed;
      gap;
    }
  end
