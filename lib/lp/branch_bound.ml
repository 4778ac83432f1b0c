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
  int_tol : float;
  presolve : bool;
  int_objective : bool;
  int_obj_step : float;
  log : bool;
  domains : int;
  deterministic : bool;
}

let default_domains () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

let default_options =
  {
    time_limit = None;
    node_limit = None;
    int_tol = 1e-6;
    presolve = true;
    int_objective = false;
    int_obj_step = 1.0;
    log = false;
    domains = default_domains ();
    deterministic = false;
  }

(* A search node: the full per-variable bound vector (an immutable overlay —
   the shared model is never mutated during the search, so nodes are safe to
   process on any domain), the warm-start basis cell inherited from the
   parent (copy-on-branch: sibling solves must not clobber each other's
   snapshots) and the parent's relaxation bound (a valid lower bound on the
   whole subtree, merged into [best_bound] when the node is discarded at a
   limit). *)
type node = {
  nd_bounds : (Q.t option * Q.t option) array;
  nd_basis : Simplex.basis;
  nd_depth : int;
  nd_bound : float;
}

(* Per-worker deque: the owner pushes and pops at the head (LIFO, so each
   worker runs depth-first), a thief steals from the tail (the shallowest —
   largest — open subtree, which keeps steals rare). A mutex per deque is
   plenty: pushes and pops are a few dozen nanoseconds against
   relaxation solves of tens of microseconds and up. *)
type deque = { dq_lock : Mutex.t; mutable dq_nodes : node list }

type shared = {
  opts : options;
  model : Model.t;
  dir_sign : float; (* +1 minimize, -1 maximize: internal obj = natural * dir_sign *)
  int_vars : int array;
  started : float;
  deadline : float option;
  incumbent : (float * float array) option Atomic.t;
      (* internal-sense objective + rounded values *)
  best_bound : float Atomic.t; (* lowest open relaxation bound at a cut-off *)
  nodes : int Atomic.t;
  inflight : int Atomic.t; (* nodes queued or being processed *)
  proven : bool Atomic.t; (* search space fully explored *)
  stop : bool Atomic.t;
  unbounded : bool Atomic.t;
  deques : deque array;
}

let now () = Telemetry.Clock.now_s ()

let atomic_min cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let push dq nd =
  Mutex.lock dq.dq_lock;
  dq.dq_nodes <- nd :: dq.dq_nodes;
  Mutex.unlock dq.dq_lock

let pop dq =
  Mutex.lock dq.dq_lock;
  let r =
    match dq.dq_nodes with
    | [] -> None
    | nd :: rest ->
      dq.dq_nodes <- rest;
      Some nd
  in
  Mutex.unlock dq.dq_lock;
  r

let steal dq =
  Mutex.lock dq.dq_lock;
  let r =
    match List.rev dq.dq_nodes with
    | [] -> None
    | nd :: rest_rev ->
      dq.dq_nodes <- List.rev rest_rev;
      Some nd
  in
  Mutex.unlock dq.dq_lock;
  r

let limits_hit sh =
  (match sh.opts.time_limit with
   | Some t -> now () -. sh.started > t
   | None -> false)
  ||
  match sh.opts.node_limit with
  | Some n -> Atomic.get sh.nodes >= n
  | None -> false

let fractionality x = Float.abs (x -. Float.round x)

(* Branching variable, or None when integral: the most fractional binary
   if any (fixing a disjunction/assignment binary collapses its big-M rows,
   while branching on a general integer barely moves the relaxation), else
   the most fractional general integer. *)
let pick_branch sh values =
  let best_bin = ref (-1) and best_bin_frac = ref sh.opts.int_tol in
  let best_gen = ref (-1) and best_gen_frac = ref sh.opts.int_tol in
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

(* Deterministic tie-break for equal-objective incumbents, so the shared
   incumbent does not depend on which domain reported first. *)
let lex_lt a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let round_integral sh values =
  let rounded = Array.copy values in
  Array.iter
    (fun v ->
      if fractionality rounded.(v) <= sh.opts.int_tol then
        rounded.(v) <- Float.round rounded.(v))
    sh.int_vars;
  rounded

let try_incumbent sh values internal_obj =
  (* Round near-integral values exactly before the feasibility re-check. *)
  let rounded = round_integral sh values in
  let violations =
    Model.check_feasible sh.model ~tol:1e-5 (fun v -> rounded.(v))
  in
  if violations = [] then begin
    let rec attempt () =
      let cur = Atomic.get sh.incumbent in
      let better =
        match cur with
        | None -> true
        | Some (obj, vals) ->
          internal_obj < obj -. 1e-9
          || (Float.abs (internal_obj -. obj) <= 1e-9 && lex_lt rounded vals)
      in
      if better then
        if Atomic.compare_and_set sh.incumbent cur (Some (internal_obj, rounded))
        then begin
          Telemetry.count "lp.bb.incumbents";
          Telemetry.observe "lp.bb.incumbent_obj" (sh.dir_sign *. internal_obj);
          if sh.opts.log then
            Printf.eprintf "[bb] node %d: incumbent %.6g\n%!"
              (Atomic.get sh.nodes)
              (sh.dir_sign *. internal_obj)
        end
        else attempt ()
    in
    attempt ();
    true
  end
  else false

let incumbent_obj sh =
  match Atomic.get sh.incumbent with Some (o, _) -> o | None -> infinity

let cutoff sh =
  let inc = incumbent_obj sh in
  (* With an integer-valued objective, a node whose bound is within one
     objective step of the incumbent cannot contain a strictly better
     integer point; [int_obj_step] is the gcd of the objective coefficients
     (e.g. 50 for the paper's weight vector), which prunes the endgame far
     harder than the generic step of 1. *)
  if sh.opts.int_objective then
    inc -. Float.max 1.0 sh.opts.int_obj_step +. 1e-6
  else inc -. 1e-9

(* A relaxation that ran out of pivots: drop only its subtree. The search
   goes on, but it no longer proves optimality, and the node's bound stays
   in the gap. *)
let abandon_node sh nd =
  Telemetry.count "lp.simplex.iteration_aborts";
  Atomic.set sh.proven false;
  atomic_min sh.best_bound nd.nd_bound

(* Bounds of the two children of branching [v] at fractional value [x]. *)
let branch_bounds nd v x =
  let fl = Float.of_int (int_of_float (Float.floor x)) in
  let lb_v, ub_v = nd.nd_bounds.(v) in
  let down = Array.copy nd.nd_bounds in
  down.(v) <- (lb_v, Some (Q.of_float_approx fl));
  let up = Array.copy nd.nd_bounds in
  up.(v) <- (Some (Q.of_float_approx (fl +. 1.0)), ub_v);
  let lo_first = x -. fl <= 0.5 in
  if lo_first then (down, up) else (up, down)

(* Process one node on worker [wid]; children go onto the worker's own
   deque, near child on top so each worker keeps the sequential solver's
   dive-towards-the-relaxation order. *)
let process sh wid relax_ema nd =
  if Atomic.get sh.stop then atomic_min sh.best_bound nd.nd_bound
  else if limits_hit sh then begin
    Atomic.set sh.proven false;
    Atomic.set sh.stop true;
    atomic_min sh.best_bound nd.nd_bound
  end
  else begin
    (* Stop cleanly when the remaining budget cannot fit another relaxation
       of typical size: the kernel deadline below then only fires on a
       genuinely runaway relaxation — the pathology
       [lp.simplex.deadline_aborts] exists to count — not on routine budget
       exhaustion mid-pivot. *)
    let budget_tight =
      match sh.opts.time_limit with
      | Some t ->
        let margin = Float.max 0.05 (4.0 *. !relax_ema) in
        sh.started +. t -. now () < margin
      | None -> false
    in
    if budget_tight then begin
      Atomic.set sh.proven false;
      Atomic.set sh.stop true;
      atomic_min sh.best_bound nd.nd_bound
    end
    else if nd.nd_bound >= cutoff sh then begin
      (* the parent's relaxation bound already rules this child out — the
         incumbent improved since it was queued; skip the relaxation *)
      Telemetry.count "lp.bb.pruned_by_bound";
      atomic_min sh.best_bound nd.nd_bound
    end
    else begin
      Atomic.incr sh.nodes;
      match
        let t0 = now () in
        let outcome =
          Simplex.solve_relaxation_float ?deadline:sh.deadline
            ~bounds:nd.nd_bounds ~basis:nd.nd_basis sh.model
        in
        let dt = now () -. t0 in
        relax_ema :=
          (if !relax_ema <= 0.0 then dt
           else (0.8 *. !relax_ema) +. (0.2 *. dt));
        outcome
      with
      | exception Tableau.Deadline_exceeded ->
        (* one relaxation outlived the whole time budget: abandon the search
           but keep any incumbent (e.g. the warm start) *)
        Atomic.set sh.proven false;
        Atomic.set sh.stop true;
        atomic_min sh.best_bound nd.nd_bound
      | exception Tableau.Iteration_limit -> abandon_node sh nd
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
        (* An unbounded relaxation at the root means the MILP is unbounded
           or infeasible; deeper down it cannot happen if the root was
           bounded. *)
        if nd.nd_depth = 0 then begin
          Atomic.set sh.unbounded true;
          Atomic.set sh.stop true
        end
      | Simplex.Optimal { objective; values } ->
        let internal = sh.dir_sign *. objective in
        if internal >= cutoff sh then begin
          (* pruned by bound; remember the tightest open bound for the gap *)
          Telemetry.count "lp.bb.pruned_by_bound";
          atomic_min sh.best_bound internal
        end
        else begin
          match pick_branch sh values with
          | None ->
            if not (try_incumbent sh values internal) then
              (* Numerically integral but infeasible on re-check: give up on
                 this node. *)
              Atomic.set sh.proven false
          | Some v ->
            let near, far = branch_bounds nd v values.(v) in
            let child bounds =
              {
                nd_bounds = bounds;
                nd_basis = Simplex.copy_basis nd.nd_basis;
                nd_depth = nd.nd_depth + 1;
                nd_bound = internal;
              }
            in
            let dq = sh.deques.(wid) in
            (* inflight is raised before the push so a racing worker never
               observes an empty pool while children are in hand *)
            Atomic.incr sh.inflight;
            Atomic.incr sh.inflight;
            push dq (child far);
            push dq (child near)
        end
    end
  end

(* Claim the next node: own deque first, then steal round-robin. Returns
   None only when no node is queued anywhere and none is being processed —
   the pool-wide termination condition. *)
let rec next_node sh wid =
  match pop sh.deques.(wid) with
  | Some nd -> Some nd
  | None ->
    let d = Array.length sh.deques in
    let rec try_steal k =
      if k >= d then None
      else
        match steal sh.deques.((wid + k) mod d) with
        | Some nd ->
          Telemetry.count "lp.bb.steals";
          Some nd
        | None -> try_steal (k + 1)
    in
    (match try_steal 1 with
     | Some nd -> Some nd
     | None ->
       if Atomic.get sh.inflight = 0 then None
       else begin
         (* nodes are in flight elsewhere and may yet spawn children: back
            off briefly (sleeping, not spinning — with more domains than
            cores a spin here would starve the workers that have work) *)
         Unix.sleepf 2e-4;
         next_node sh wid
       end)

let worker sh wid =
  let relax_ema = ref 0.0 in
  let processed = ref 0 in
  let t0 = now () in
  let rec loop () =
    match next_node sh wid with
    | None -> ()
    | Some nd ->
      process sh wid relax_ema nd;
      incr processed;
      Atomic.decr sh.inflight;
      loop ()
  in
  loop ();
  let dt = now () -. t0 in
  if !processed > 0 && dt > 0.0 then
    Telemetry.observe "lp.bb.nodes_per_sec" (float_of_int !processed /. dt)

(* Deterministic synchronous-wave driver ([options.deterministic]): one
   global stack of open nodes, processed in fixed-width waves, with every
   shared-state update — wave membership, incumbent updates, child order —
   applied at the wave barrier in stack order. The wave width is a
   constant, NOT the domain count: the set of nodes explored under a
   [node_limit] budget must depend only on the budget, so [ndomains] may
   only decide how many workers share one wave, never which nodes are in
   it. Nothing depends on timing or interleaving, so a run is
   byte-identical across domain counts. The price is a barrier per wave
   and pruning against the cutoff as of the wave start. Pair this mode
   with a [node_limit] budget: a wall-clock limit still stops the search
   but reintroduces machine-dependent stopping points. *)
let wave_width = 8
type wave_outcome =
  | W_abort
  | W_dropped
  | W_infeasible
  | W_unbounded
  | W_solved of float * float array

let solve_deterministic sh ndomains root =
  let solve_node nd =
    Atomic.incr sh.nodes;
    match
      Simplex.solve_relaxation_float ?deadline:sh.deadline
        ~bounds:nd.nd_bounds ~basis:nd.nd_basis sh.model
    with
    | exception Tableau.Deadline_exceeded -> W_abort
    | exception Tableau.Iteration_limit -> W_dropped
    | Simplex.Infeasible -> W_infeasible
    | Simplex.Unbounded -> W_unbounded
    | Simplex.Optimal { objective; values } ->
      W_solved (sh.dir_sign *. objective, values)
  in
  let stack = ref [ root ] in
  let t0 = now () in
  let budget =
    ref (match sh.opts.node_limit with Some n -> n | None -> max_int)
  in
  let abandon () =
    Atomic.set sh.proven false;
    Atomic.set sh.stop true;
    List.iter (fun nd -> atomic_min sh.best_bound nd.nd_bound) !stack;
    stack := []
  in
  while !stack <> [] && not (Atomic.get sh.stop) do
    if !budget <= 0 || limits_hit sh then abandon ()
    else begin
      (* assemble the wave: account nodes the incumbent already rules out,
         then take up to [wave_width] of the rest, within budget *)
      let wave = ref [] and nwave = ref 0 in
      let cap = min wave_width !budget in
      while !nwave < cap && !stack <> [] do
        let nd = List.hd !stack in
        stack := List.tl !stack;
        if nd.nd_bound >= cutoff sh then begin
          Telemetry.count "lp.bb.pruned_by_bound";
          atomic_min sh.best_bound nd.nd_bound
        end
        else begin
          wave := nd :: !wave;
          incr nwave
        end
      done;
      let wave = Array.of_list (List.rev !wave) in
      budget := !budget - Array.length wave;
      let outcomes = Array.make (Array.length wave) W_infeasible in
      (* [ndomains] workers share the wave round-robin by index; each slot
         is written by exactly one worker, so the only synchronisation is
         the join *)
      let nwork = max 1 (min ndomains (Array.length wave)) in
      let solve_share w =
        let i = ref w in
        while !i < Array.length wave do
          outcomes.(!i) <- solve_node wave.(!i);
          i := !i + nwork
        done
      in
      if Array.length wave > 0 then begin
        let helpers =
          Array.init (nwork - 1) (fun w ->
              Domain.spawn (fun () -> solve_share (w + 1)))
        in
        solve_share 0;
        Array.iter Domain.join helpers
      end;
      (* barrier: fold the outcomes back in wave order *)
      let children = ref [] in
      Array.iteri
        (fun i outcome ->
          let nd = wave.(i) in
          match outcome with
          | W_abort ->
            atomic_min sh.best_bound nd.nd_bound;
            abandon ()
          | W_dropped -> abandon_node sh nd
          | W_infeasible -> ()
          | W_unbounded ->
            if nd.nd_depth = 0 then begin
              Atomic.set sh.unbounded true;
              Atomic.set sh.stop true
            end
          | W_solved (internal, values) ->
            if internal >= cutoff sh then begin
              Telemetry.count "lp.bb.pruned_by_bound";
              atomic_min sh.best_bound internal
            end
            else begin
              match pick_branch sh values with
              | None ->
                if not (try_incumbent sh values internal) then
                  Atomic.set sh.proven false
              | Some v ->
                let near, far = branch_bounds nd v values.(v) in
                let child bounds =
                  {
                    nd_bounds = bounds;
                    nd_basis = Simplex.copy_basis nd.nd_basis;
                    nd_depth = nd.nd_depth + 1;
                    nd_bound = internal;
                  }
                in
                children := child far :: child near :: !children
            end)
        outcomes;
      if Atomic.get sh.stop then
        List.iter (fun nd -> atomic_min sh.best_bound nd.nd_bound) !children
      else stack := List.rev_append !children !stack
    end
  done;
  let dt = now () -. t0 in
  let n = Atomic.get sh.nodes in
  if n > 0 && dt > 0.0 then
    Telemetry.observe "lp.bb.nodes_per_sec" (float_of_int n /. dt)

(* Deterministic result extraction: once the parallel search has *proved*
   the optimal internal objective [w], re-derive the reported solution with
   a fixed-order sequential dive so the values are byte-identical whatever
   the domain count or work-stealing interleaving was. The dive prunes at
   [w + 1e-6] (keeping every optimal leaf alive) and returns the first
   integral feasible solution it reaches — first-in-fixed-DFS-order is a
   canonical choice; with warm-started re-solves the dive costs a small
   fraction of the search that proved [w]. *)
exception Found of float * float array

let extract_solution sh root_bounds w =
  let limit = w +. 1e-6 in
  let basis = Simplex.new_basis () in
  let rec dive bounds basis depth =
    (match sh.deadline with
     | Some t when now () > t -> raise Exit
     | _ -> ());
    match
      Simplex.solve_relaxation_float ?deadline:sh.deadline ~bounds ~basis
        sh.model
    with
    | exception Tableau.Deadline_exceeded -> raise Exit
    | exception Tableau.Iteration_limit ->
      (* the search already proved [w]; a dive node that runs out of pivots
         only costs the canonical re-derivation of this subtree *)
      Telemetry.count "lp.simplex.iteration_aborts"
    | Simplex.Infeasible | Simplex.Unbounded -> ()
    | Simplex.Optimal { objective; values } ->
      let internal = sh.dir_sign *. objective in
      if internal <= limit then begin
        match pick_branch sh values with
        | None ->
          let rounded = round_integral sh values in
          if
            Model.check_feasible sh.model ~tol:1e-5 (fun v -> rounded.(v))
            = []
          then raise (Found (internal, rounded))
        | Some v ->
          let nd = { nd_bounds = bounds; nd_basis = basis; nd_depth = depth; nd_bound = internal } in
          let near, far = branch_bounds nd v values.(v) in
          dive near (Simplex.copy_basis basis) (depth + 1);
          dive far (Simplex.copy_basis basis) (depth + 1)
      end
  in
  match dive root_bounds basis 0 with
  | () -> None
  | exception Found (obj, values) -> Some (obj, values)
  | exception Exit -> None

let solve ?(options = default_options) ?warm_start model =
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
  let ndomains = max 1 options.domains in
  let sh =
    {
      opts = options;
      model;
      dir_sign;
      int_vars;
      started;
      deadline =
        (match options.time_limit with
         | Some t -> Some (started +. t)
         | None -> None);
      incumbent = Atomic.make None;
      best_bound = Atomic.make infinity;
      nodes = Atomic.make 0;
      inflight = Atomic.make 0;
      proven = Atomic.make true;
      stop = Atomic.make false;
      unbounded = Atomic.make false;
      deques =
        Array.init ndomains (fun _ ->
            { dq_lock = Mutex.create (); dq_nodes = [] });
    }
  in
  (match warm_start with
   | Some values ->
     let obj = Model.eval_objective model (fun v -> values.(v)) in
     ignore (try_incumbent sh values (dir_sign *. obj))
   | None -> ());
  let presolve_outcome =
    if options.presolve then
      Telemetry.span "lp.presolve.run" (fun () -> Presolve.run model)
    else Presolve.Ok 0
  in
  match presolve_outcome with
  | Presolve.Proved_infeasible ->
    let inc = Atomic.get sh.incumbent in
    {
      status = (if inc = None then Infeasible else Feasible);
      objective = Option.map (fun (o, _) -> dir_sign *. o) inc;
      values = Option.map snd inc;
      nodes = 0;
      elapsed = now () -. started;
      gap = None;
    }
  | Presolve.Ok _ -> begin
    let nvars = Model.var_count model in
    let root_bounds =
      Array.init nvars (fun v -> (Model.var_lb model v, Model.var_ub model v))
    in
    let root =
      {
        nd_bounds = root_bounds;
        nd_basis = Simplex.new_basis ();
        nd_depth = 0;
        nd_bound = neg_infinity;
      }
    in
    if options.deterministic then solve_deterministic sh ndomains root
    else begin
      Atomic.set sh.inflight 1;
      push sh.deques.(0) root;
      let helpers =
        Array.init (ndomains - 1) (fun i ->
            Domain.spawn (fun () -> worker sh (i + 1)))
      in
      worker sh 0;
      Array.iter Domain.join helpers
    end;
    let elapsed = now () -. started in
    (* Canonical reported solution: re-derived deterministically when
       optimality was proved (see [extract_solution]); the racing shared
       incumbent otherwise (budget-stopped runs are best-effort anyway, and
       documented as such). *)
    let incumbent =
      match (Atomic.get sh.incumbent, Atomic.get sh.proven) with
      | Some (w, _), true -> (
        match extract_solution sh root_bounds w with
        | Some (obj, values) -> Some (obj, values)
        | None -> Atomic.get sh.incumbent)
      | inc, _ -> inc
    in
    let objective = Option.map (fun (o, _) -> dir_sign *. o) incumbent in
    let proven = Atomic.get sh.proven in
    let best_bound = Atomic.get sh.best_bound in
    (* A root whose relaxation never finished leaves [best_bound] at the
       root's [neg_infinity]: there is no bound, so no gap to report. *)
    let gap =
      match (incumbent, proven) with
      | Some _, true -> Some 0.0
      | Some (i, _), false when Float.is_finite best_bound ->
        Some (Float.abs (i -. best_bound) /. Float.max 1e-9 (Float.abs i))
      | Some _, false | None, _ -> None
    in
    let status =
      if Atomic.get sh.unbounded then Unbounded
      else
        match (incumbent, proven) with
        | Some _, true -> Optimal
        | Some _, false -> Feasible
        | None, true -> Infeasible
        | None, false -> Unknown
    in
    let nodes = Atomic.get sh.nodes in
    Telemetry.count ~by:nodes "lp.bb.nodes";
    (match gap with Some g -> Telemetry.observe "lp.bb.gap" g | None -> ());
    {
      status;
      objective;
      values = Option.map snd incumbent;
      nodes;
      elapsed;
      gap;
    }
  end
