open Microfluidics
module G = Flowgraph.Digraph
module M = Lp.Model
module E = Lp.Linexpr
module Q = Numeric.Rat

type slot = Fixed of Device.t | Free of { id : int }

(* The six legal (container, capacity) configurations (constraints (3)-(4)). *)
let legal_configs =
  let open Components in
  [
    (Container.Ring, Capacity.Large);
    (Container.Ring, Capacity.Medium);
    (Container.Ring, Capacity.Small);
    (Container.Chamber, Capacity.Medium);
    (Container.Chamber, Capacity.Small);
    (Container.Chamber, Capacity.Tiny);
  ]

type free_slot_vars = {
  used : M.var;
  config : ((Components.Container.t * Components.Capacity.t) * M.var) list;
  acc : (Components.Accessory.t * M.var) list;
}

type built = {
  problem : Layer_problem.t;
  slots : slot array;
  lp : M.t;
  horizon : int;
  layer_ops : int array;
  start_var : (int, M.var) Hashtbl.t;
  bind_var : (int * int, M.var) Hashtbl.t; (* (op, slot index) *)
  free_vars : (int, free_slot_vars) Hashtbl.t; (* slot index *)
  makespan_var : M.var;
  path_var : (int * int, M.var) Hashtbl.t; (* global device id pair *)
  conflict_aux : (int * int, M.var list) Hashtbl.t; (* per pair q vars *)
}

let model b = b.lp
let horizon b = b.horizon

let slot_id = function Fixed d -> d.Device.id | Free { id } -> id

let dur_t (problem : Layer_problem.t) v =
  Operation.min_duration problem.ops.(v) + problem.transport v

(* Can op [v] possibly run on slot [j]? Fixed slots decide by the binding
   rule; free slots accept anything (the model configures them to fit). *)
let slot_compatible (problem : Layer_problem.t) v = function
  | Fixed d -> Binding.op_fits problem.rule problem.ops.(v) d
  | Free _ -> true

let path_key a b = (min a b, max a b)

let build ?(prune = true) (problem : Layer_problem.t) ~slots =
  let lp = M.create ~name:(Printf.sprintf "layer%d" problem.layer.Layering.index) () in
  let layer_ops = Array.of_list problem.layer.Layering.ops in
  let n_ops = Array.length layer_ops in
  let horizon = Array.fold_left (fun acc v -> acc + dur_t problem v) 0 layer_ops in
  let max_dt = Array.fold_left (fun acc v -> max acc (dur_t problem v)) 0 layer_ops in
  let big_m = horizon + max_dt + 1 in
  let start_var = Hashtbl.create 16 in
  let bind_var = Hashtbl.create 64 in
  let free_vars = Hashtbl.create 8 in
  let path_var = Hashtbl.create 16 in
  let conflict_aux = Hashtbl.create 32 in
  let in_layer v = problem.layer_of_op.(v) = problem.layer.Layering.index in
  (* ASAP / ALAP start windows from the in-layer dependency DAG. [asap v] is
     the longest predecessor chain into v; [tail v] is the longest chain
     from v (v's own duration included). Both are implied by the dependency
     constraints together with s >= 0 and the makespan's upper bound, so
     installing them as variable bounds never changes the optimum — it only
     shrinks the search box and, downstream, every big-M derived from it. *)
  let asap_tbl = Hashtbl.create 16 and tail_tbl = Hashtbl.create 16 in
  let rec asap v =
    match Hashtbl.find_opt asap_tbl v with
    | Some x -> x
    | None ->
      let x =
        List.fold_left
          (fun acc u -> if in_layer u then max acc (asap u + dur_t problem u) else acc)
          0 (G.pred problem.graph v)
      in
      Hashtbl.replace asap_tbl v x;
      x
  in
  let rec tail v =
    match Hashtbl.find_opt tail_tbl v with
    | Some x -> x
    | None ->
      let x =
        dur_t problem v
        + List.fold_left
            (fun acc w -> if in_layer w then max acc (tail w) else acc)
            0 (G.succ problem.graph v)
      in
      Hashtbl.replace tail_tbl v x;
      x
  in
  (* Start windows: s_v ranges over [lb_start v, ub_start v]. The upper
     bound comes from s_v + tail v <= makespan <= horizon + max_dt. *)
  let lb_start v = if prune then asap v else 0 in
  let ub_start v = if prune then min horizon (horizon + max_dt - tail v) else horizon in
  (* start variables *)
  Array.iter
    (fun v ->
      let s =
        M.add_var lp
          ~lb:(Q.of_int (lb_start v))
          ~ub:(Q.of_int (ub_start v))
          ~kind:M.Integer (Printf.sprintf "s_%d" v)
      in
      Hashtbl.replace start_var v s)
    layer_ops;
  let makespan_var =
    M.add_var lp ~ub:(Q.of_int (horizon + max_dt)) ~kind:M.Integer "makespan"
  in
  (* free slot configuration variables *)
  Array.iteri
    (fun j slot ->
      match slot with
      | Fixed _ -> ()
      | Free _ ->
        let used = M.add_var lp ~kind:M.Binary (Printf.sprintf "used_%d" j) in
        let config =
          List.map
            (fun (cont, cap) ->
              let name =
                Printf.sprintf "y_%d_%s_%s" j
                  (Components.Container.to_string cont)
                  (Components.Capacity.to_string cap)
              in
              ((cont, cap), M.add_var lp ~kind:M.Binary name))
            legal_configs
        in
        let acc =
          List.map
            (fun a ->
              let name = Printf.sprintf "a_%d_%s" j (Components.Accessory.short_code a) in
              (a, M.add_var lp ~kind:M.Binary name))
            Components.Accessory.all
        in
        (* exactly one configuration iff used (reformulated (1)-(4)) *)
        M.add_constr lp
          ~name:(Printf.sprintf "cfg_%d" j)
          (E.sum (List.map (fun (_, v) -> E.var v) config))
          M.Eq (E.var used);
        (* accessories only on used slots *)
        List.iter
          (fun (a, av) ->
            M.add_constr lp
              ~name:(Printf.sprintf "acc_used_%d_%s" j (Components.Accessory.short_code a))
              (E.var av) M.Le (E.var used))
          acc;
        Hashtbl.replace free_vars j { used; config; acc })
    slots;
  (* Free slots are interchangeable (same configuration choices, same
     costs, and no path or earlier binding names a free slot's id, so path
     costs are permutation invariant), so any solution can be rearranged
     until the k-th used free slot hosts, as its earliest op in layer order,
     an op of layer position >= k ({!slots} orders the heuristic's devices
     this way). Hence op number i never needs a free slot beyond ordinal i, and
     the used flags can be forced monotone — both cut the symmetric copies
     of every solution without touching the optimal value. *)
  let pos_of = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace pos_of v i) layer_ops;
  let free_ord = Array.make (Array.length slots) (-1) in
  let n_free = ref 0 in
  Array.iteri
    (fun j slot ->
      match slot with
      | Free _ ->
        free_ord.(j) <- !n_free;
        incr n_free
      | Fixed _ -> ())
    slots;
  let binds_pruned = ref 0 in
  (* binding variables, one per compatible (op, slot) pair *)
  Array.iter
    (fun v ->
      let any = ref false in
      Array.iteri
        (fun j slot ->
          if slot_compatible problem v slot then
            if
              prune && free_ord.(j) >= 0
              && free_ord.(j) > Hashtbl.find pos_of v
            then incr binds_pruned
            else begin
              any := true;
              let b = M.add_var lp ~kind:M.Binary (Printf.sprintf "b_%d_%d" v j) in
              Hashtbl.replace bind_var (v, j) b
            end)
        slots;
      if not !any then
        invalid_arg (Printf.sprintf "Ilp_model.build: op %d fits no slot" v))
    layer_ops;
  Telemetry.count ~by:!binds_pruned "ilp.model.binds_pruned";
  (* symmetry breaking: free slots are used in ordinal order *)
  if prune then begin
    let prev = ref None in
    Array.iteri
      (fun j slot ->
        match slot with
        | Fixed _ -> ()
        | Free _ ->
          let used = (Hashtbl.find free_vars j).used in
          (match !prev with
           | Some prev_used ->
             M.add_constr lp
               ~name:(Printf.sprintf "symm_%d" j)
               (E.var used) M.Le (E.var prev_used)
           | None -> ());
          prev := Some used)
      slots
  end;
  let bvar v j = Hashtbl.find_opt bind_var (v, j) in
  (* (5): every operation bound exactly once *)
  Array.iter
    (fun v ->
      let terms =
        Array.to_list (Array.mapi (fun j _ -> bvar v j) slots)
        |> List.filter_map Fun.id
        |> List.map E.var
      in
      M.add_constr lp ~name:(Printf.sprintf "bind1_%d" v) (E.sum terms) M.Eq (E.of_int 1))
    layer_ops;
  (* (6)-(8) on free slots: binding implies a fitting configuration *)
  let config_requirements v j fv b =
    let o = problem.ops.(v) in
    let need expr name =
      M.add_constr lp ~name (expr) M.Ge (E.var b)
    in
    (* used_j >= b *)
    M.add_constr lp
      ~name:(Printf.sprintf "use_%d_%d" v j)
      (E.var fv.used) M.Ge (E.var b);
    (match problem.rule with
     | Binding.Component_oriented ->
       (match o.Operation.container with
        | Some c ->
          let cols =
            List.filter_map
              (fun ((cont, _), var) ->
                if Components.Container.equal cont c then Some (E.var var) else None)
              fv.config
          in
          need (E.sum cols) (Printf.sprintf "cont_%d_%d" v j)
        | None -> ());
       (match o.Operation.capacity with
        | Some cap ->
          let cols =
            List.filter_map
              (fun ((_, cp), var) ->
                if Components.Capacity.equal cp cap then Some (E.var var) else None)
              fv.config
          in
          need (E.sum cols) (Printf.sprintf "cap_%d_%d" v j)
        | None -> ());
       Components.Accessory.Set.iter
         (fun a ->
           let av = List.assoc a fv.acc in
           need (E.var av)
             (Printf.sprintf "req_%d_%d_%s" v j (Components.Accessory.short_code a)))
         o.Operation.accessories
     | Binding.Exact_signature ->
       let rc = Binding.resolved_container o and rcap = Binding.resolved_capacity o in
       let yv = List.assoc (rc, rcap) fv.config in
       need (E.var yv) (Printf.sprintf "sig_%d_%d" v j);
       List.iter
         (fun (a, av) ->
           if Components.Accessory.Set.mem a o.Operation.accessories then
             need (E.var av)
               (Printf.sprintf "req_%d_%d_%s" v j (Components.Accessory.short_code a))
           else
             (* exact type match: no extra accessories on this device *)
             M.add_constr lp
               ~name:(Printf.sprintf "noextra_%d_%d_%s" v j
                        (Components.Accessory.short_code a))
               (E.add (E.var av) (E.var b))
               M.Le (E.of_int 1))
         fv.acc)
  in
  Array.iter
    (fun v ->
      Array.iteri
        (fun j slot ->
          match (slot, bvar v j) with
          | Free _, Some b ->
            config_requirements v j (Hashtbl.find free_vars j) b
          | (Fixed _ | Free _), _ -> ())
        slots)
    layer_ops;
  let svar v = Hashtbl.find start_var v in
  (* (9): dependencies inside the layer *)
  Array.iter
    (fun u ->
      List.iter
        (fun v ->
          if in_layer v then
            M.add_constr lp
              ~name:(Printf.sprintf "dep_%d_%d" u v)
              (E.add (E.var (svar u)) (E.of_int (dur_t problem u)))
              M.Le (E.var (svar v)))
        (G.succ problem.graph u))
    layer_ops;
  (* conflict pairs: unordered, no dependency path between them *)
  let reach = Hashtbl.create 16 in
  Array.iter
    (fun v -> Hashtbl.replace reach v (Flowgraph.Dag.reachable_set problem.graph v))
    layer_ops;
  let independent a b =
    (not (Hashtbl.find reach a).(b)) && not (Hashtbl.find reach b).(a)
  in
  let shared_slots a b =
    Array.to_list
      (Array.mapi
         (fun j _ ->
           match (bvar a j, bvar b j) with Some ba, Some bb -> Some (ba, bb) | _ -> None)
         slots)
    |> List.filter_map Fun.id
  in
  let is_indet v = Operation.is_indeterminate problem.ops.(v) in
  (* [x] provably finishes before [y] can start, from the start windows. *)
  let always_before x y = prune && ub_start x + dur_t problem x <= lb_start y in
  (* The tightest big-M that still deactivates [s_x + dur_x <= s_y + M q]:
     the worst violation is ub_x + dur_x - lb_y. Presolve would rediscover
     it, but emitting it directly keeps even the first relaxation tight. *)
  let pair_m x y =
    if prune then max 1 (ub_start x + dur_t problem x - lb_start y) else big_m
  in
  let pairs_skipped = ref 0 in
  let distinct_device ~tag a b shared =
    List.iteri
      (fun k (ba, bb) ->
        M.add_constr lp
          ~name:(Printf.sprintf "%s_%d_%d_%d" tag a b k)
          (E.add (E.var ba) (E.var bb))
          M.Le (E.of_int 1))
      shared
  in
  let add_pair a b =
    let shared = shared_slots a b in
    match (is_indet a, is_indet b) with
    | true, true ->
      (* indeterminate operations execute in parallel on distinct devices *)
      distinct_device ~tag:"ind2" a b shared
    | false, false ->
      (* When the windows already order the pair, the disjunction is
         resolved for free: the forced ordering satisfies (10)/(11) with
         q0 = 1, q1 = 0 (or symmetrically) for every point in the box, and
         (13) then never binds — so the pair needs no variables at all. *)
      if shared <> [] && not (always_before a b || always_before b a) then begin
        let q0 = M.add_var lp ~kind:M.Binary (Printf.sprintf "q0_%d_%d" a b) in
        let q1 = M.add_var lp ~kind:M.Binary (Printf.sprintf "q1_%d_%d" a b) in
        let q2 = M.add_var lp ~kind:M.Binary (Printf.sprintf "q2_%d_%d" a b) in
        Hashtbl.replace conflict_aux (a, b) [ q0; q1; q2 ];
        (* (10): q0 = 0 -> a starts after b finishes *)
        M.add_constr lp
          ~name:(Printf.sprintf "c10_%d_%d" a b)
          (E.add (E.var (svar a)) (E.iterm (pair_m b a) q0))
          M.Ge
          (E.add (E.var (svar b)) (E.of_int (dur_t problem b)));
        (* (11): q1 = 0 -> a finishes before b starts *)
        M.add_constr lp
          ~name:(Printf.sprintf "c11_%d_%d" a b)
          (E.add (E.var (svar a)) (E.of_int (dur_t problem a)))
          M.Le
          (E.add (E.var (svar b)) (E.iterm (pair_m a b) q1));
        (* (12): q2 = 0 -> never on the same device *)
        List.iteri
          (fun k (ba, bb) ->
            M.add_constr lp
              ~name:(Printf.sprintf "c12_%d_%d_%d" a b k)
              (E.sub (E.add (E.var ba) (E.var bb)) (E.var q2))
              M.Le (E.of_int 1))
          shared;
        (* (13) *)
        M.add_constr lp
          ~name:(Printf.sprintf "c13_%d_%d" a b)
          (E.sum [ E.var q0; E.var q1; E.var q2 ])
          M.Le (E.of_int 2)
      end
      else if shared <> [] then incr pairs_skipped
    | true, false | false, true ->
      (* one indeterminate: the determinate op must fully precede it when
         they share a device (an indeterminate op is last on its device) *)
      let det, ind = if is_indet a then (b, a) else (a, b) in
      if shared <> [] then
        if always_before det ind then
          (* the required ordering holds everywhere: nothing to encode *)
          incr pairs_skipped
        else if prune && lb_start det + dur_t problem det > ub_start ind then
          (* det can never precede ind, so sharing a device is impossible *)
          distinct_device ~tag:"ind1" det ind (shared_slots det ind)
        else begin
          let q1 = M.add_var lp ~kind:M.Binary (Printf.sprintf "qi1_%d_%d" det ind) in
          let q2 = M.add_var lp ~kind:M.Binary (Printf.sprintf "qi2_%d_%d" det ind) in
          Hashtbl.replace conflict_aux (a, b) [ q1; q2 ];
          M.add_constr lp
            ~name:(Printf.sprintf "ci1_%d_%d" det ind)
            (E.add (E.var (svar det)) (E.of_int (dur_t problem det)))
            M.Le
            (E.add (E.var (svar ind)) (E.iterm (pair_m det ind) q1));
          let shared_di = shared_slots det ind in
          List.iteri
            (fun k (bd, bi) ->
              M.add_constr lp
                ~name:(Printf.sprintf "ci2_%d_%d_%d" det ind k)
                (E.sub (E.add (E.var bd) (E.var bi)) (E.var q2))
                M.Le (E.of_int 1))
            shared_di;
          M.add_constr lp
            ~name:(Printf.sprintf "ci3_%d_%d" det ind)
            (E.add (E.var q1) (E.var q2))
            M.Le (E.of_int 1)
        end
  in
  Array.iteri
    (fun i a ->
      for k = i + 1 to n_ops - 1 do
        let b = layer_ops.(k) in
        if independent a b then add_pair a b
      done)
    layer_ops;
  (* (14): everything starts before each indeterminate op's minimum end *)
  List.iter
    (fun i ->
      Array.iter
        (fun a ->
          if a <> i then
            M.add_constr lp
              ~name:(Printf.sprintf "c14_%d_%d" i a)
              (E.var (svar a))
              M.Le
              (E.add (E.var (svar i)) (E.of_int (Operation.min_duration problem.ops.(i)))))
        layer_ops)
    problem.layer.Layering.indeterminate;
  (* (15): makespan *)
  Array.iter
    (fun v ->
      M.add_constr lp
        ~name:(Printf.sprintf "c15_%d" v)
        (E.add (E.var (svar v)) (E.of_int (dur_t problem v)))
        M.Le (E.var makespan_var))
    layer_ops;
  if prune then begin
    (* Machine-load cuts: any two ops that share a slot are serialized by
       (10)-(13) (and the indeterminate rules), so the summed duration
       bound to one slot fits inside the makespan. Implied for integer
       points but a strong strengthening of the LP relaxation, which could
       otherwise overlap fractionally-ordered ops for free. *)
    Array.iteri
      (fun j _slot ->
        let terms =
          Array.to_list layer_ops
          |> List.filter_map (fun v ->
                 Option.map (fun bv -> E.iterm (dur_t problem v) bv) (bvar v j))
        in
        match terms with
        | [] | [ _ ] -> ()
        | _ ->
          M.add_constr lp
            ~name:(Printf.sprintf "load_%d" j)
            (E.sum terms) M.Le (E.var makespan_var))
      slots;
    (* critical-path lower bound on the makespan *)
    let cp =
      Array.fold_left (fun acc v -> max acc (asap v + tail v)) 0 layer_ops
    in
    M.add_constr lp ~name:"critical_path" (E.var makespan_var) M.Ge (E.of_int cp)
  end;
  (* (16)-(20): area and processing cost of newly configured slots *)
  let area_expr = ref E.zero and proc_expr = ref E.zero in
  Hashtbl.iter
    (fun _j fv ->
      List.iter
        (fun ((cont, cap), yv) ->
          area_expr := E.add !area_expr (E.iterm (Cost.area problem.cost cont cap) yv);
          proc_expr :=
            E.add !proc_expr (E.iterm (Cost.container_processing problem.cost cont cap) yv))
        fv.config;
      List.iter
        (fun (a, av) ->
          proc_expr := E.add !proc_expr (E.iterm (Cost.accessory_processing problem.cost a) av))
        fv.acc)
    free_vars;
  (* (21): transportation paths between distinct devices *)
  let get_path_var ida idb =
    if problem.routed ida idb then None
    else begin
      let k = path_key ida idb in
      match Hashtbl.find_opt path_var k with
      | Some p -> Some p
      | None ->
        let p = M.add_var lp ~kind:M.Binary (Printf.sprintf "p_%d_%d" ida idb) in
        Hashtbl.replace path_var k p;
        Some p
    end
  in
  let add_path_constraints u v =
    (* u -> v reagent transfer; u in an earlier layer or in this one *)
    if in_layer u then
      Array.iteri
        (fun j slot_j ->
          match bvar u j with
          | None -> ()
          | Some bu ->
            Array.iteri
              (fun j' slot_j' ->
                if j <> j' then begin
                  match bvar v j' with
                  | None -> ()
                  | Some bv -> begin
                    match get_path_var (slot_id slot_j) (slot_id slot_j') with
                    | None -> ()
                    | Some p ->
                      M.add_constr lp
                        ~name:(Printf.sprintf "c21_%d_%d_%d_%d" u v j j')
                        (E.sub (E.add (E.var bu) (E.var bv)) (E.var p))
                        M.Le (E.of_int 1)
                  end
                end)
              slots)
        slots
    else begin
      match problem.bound_before u with
      | None -> ()
      | Some du ->
        Array.iteri
          (fun j' slot_j' ->
            if slot_id slot_j' <> du then begin
              match bvar v j' with
              | None -> ()
              | Some bv -> begin
                match get_path_var du (slot_id slot_j') with
                | None -> ()
                | Some p ->
                  M.add_constr lp
                    ~name:(Printf.sprintf "c21x_%d_%d_%d" u v j')
                    (E.var bv) M.Le (E.var p)
              end
            end)
          slots
    end
  in
  Array.iter
    (fun v ->
      List.iter (fun u -> if in_layer u || problem.layer_of_op.(u) < problem.layer.Layering.index then add_path_constraints u v) (G.pred problem.graph v))
    layer_ops;
  (* objective *)
  let path_sum =
    Hashtbl.fold (fun _ p acc -> E.add acc (E.var p)) path_var E.zero
  in
  let w = problem.weights in
  let obj =
    E.sum
      [
        E.scale_int w.Schedule.w_time (E.var makespan_var);
        E.scale_int w.Schedule.w_area !area_expr;
        E.scale_int w.Schedule.w_processing !proc_expr;
        E.scale_int w.Schedule.w_paths path_sum;
      ]
  in
  M.set_objective lp `Minimize obj;
  Telemetry.count ~by:!pairs_skipped "ilp.model.pairs_skipped";
  Telemetry.count ~by:(M.var_count lp) "ilp.model.vars";
  Telemetry.count ~by:(M.constr_count lp) "ilp.model.constrs";
  {
    problem;
    slots;
    lp;
    horizon;
    layer_ops;
    start_var;
    bind_var;
    free_vars;
    makespan_var;
    path_var;
    conflict_aux;
  }

(* ---------- slots and warm start ---------- *)

let slots (problem : Layer_problem.t) (heur : List_scheduler.outcome) ~extra_free_slots
    ~fresh_id =
  (* Created devices take their free slots in the canonical order {!build}
     prunes to: by the layer position of the device's earliest op, then id. *)
  let pos_of = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos_of v i) problem.layer.Layering.ops;
  let earliest = Hashtbl.create 8 in
  List.iter
    (fun (e : Schedule.entry) ->
      let p = Hashtbl.find pos_of e.Schedule.op in
      match Hashtbl.find_opt earliest e.Schedule.device with
      | Some q when q <= p -> ()
      | Some _ | None -> Hashtbl.replace earliest e.Schedule.device p)
    heur.List_scheduler.entries;
  let key (d : Device.t) =
    (Option.value ~default:max_int (Hashtbl.find_opt earliest d.Device.id), d.Device.id)
  in
  let created =
    List.sort (fun a b -> compare (key a) (key b)) heur.List_scheduler.created
  in
  let room =
    problem.max_devices - List.length problem.available - List.length created
  in
  Array.of_list
    (List.map (fun d -> Fixed d) problem.available
    @ List.map (fun (d : Device.t) -> Free { id = d.Device.id }) created
    @ List.init (max 0 (min extra_free_slots room)) (fun _ -> Free { id = fresh_id () }))

let warm_start b (heur : List_scheduler.outcome) =
  let problem = b.problem in
  let values = Array.make (M.var_count b.lp) 0.0 in
  let set var x = values.(var) <- x in
  let find tbl key what =
    match Hashtbl.find_opt tbl key with
    | Some x -> x
    | None -> invalid_arg ("Ilp_model.warm_start: the model has no " ^ what)
  in
  let slot_of = Hashtbl.create 8 in
  Array.iteri (fun j slot -> Hashtbl.replace slot_of (slot_id slot) j) b.slots;
  let slot d = find slot_of d (Printf.sprintf "slot for device %d" d) in
  (* each created device configures its own free slot *)
  List.iter
    (fun (d : Device.t) ->
      let id = d.Device.id in
      let fv = find b.free_vars (slot id) (Printf.sprintf "free slot for device %d" id) in
      set fv.used 1.0;
      set (List.assoc (d.Device.container, d.Device.capacity) fv.config) 1.0;
      Components.Accessory.Set.iter
        (fun a -> set (List.assoc a fv.acc) 1.0)
        d.Device.accessories)
    heur.List_scheduler.created;
  let entries = heur.List_scheduler.entries in
  List.iter
    (fun (e : Schedule.entry) ->
      let v = e.Schedule.op and j = slot e.Schedule.device in
      set
        (find b.start_var v (Printf.sprintf "operation %d" v))
        (float_of_int e.Schedule.start);
      set (find b.bind_var (v, j) (Printf.sprintf "binding of op %d to slot %d" v j)) 1.0)
    entries;
  (* conflict auxiliaries *)
  let entry_of = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entry_of e.Schedule.op e) entries;
  let dt e = e.Schedule.min_duration + e.Schedule.transport in
  Hashtbl.iter
    (fun (a, bo) qs ->
      let ea = Hashtbl.find entry_of a and eb = Hashtbl.find entry_of bo in
      let same = ea.Schedule.device = eb.Schedule.device in
      match qs with
      | [ q0; q1; q2 ] ->
        set q0 (if ea.Schedule.start >= eb.Schedule.start + dt eb then 0.0 else 1.0);
        set q1 (if ea.Schedule.start + dt ea <= eb.Schedule.start then 0.0 else 1.0);
        set q2 (if same then 1.0 else 0.0)
      | [ q1; q2 ] ->
        let det, ind =
          if Operation.is_indeterminate problem.ops.(a) then (eb, ea) else (ea, eb)
        in
        set q1 (if det.Schedule.start + dt det <= ind.Schedule.start then 0.0 else 1.0);
        set q2 (if same then 1.0 else 0.0)
      | _ -> assert false)
    b.conflict_aux;
  (* paths *)
  let note u v =
    match (Hashtbl.find_opt entry_of u, Hashtbl.find_opt entry_of v) with
    | Some eu, Some ev when eu.Schedule.device <> ev.Schedule.device ->
      (match
         Hashtbl.find_opt b.path_var (path_key eu.Schedule.device ev.Schedule.device)
       with
       | Some p -> set p 1.0
       | None -> ())
    | Some _, Some _ | None, _ | _, None -> begin
      (* cross-layer transfer into this layer *)
      match (problem.bound_before u, Hashtbl.find_opt entry_of v) with
      | Some du, Some ev when du <> ev.Schedule.device ->
        (match Hashtbl.find_opt b.path_var (path_key du ev.Schedule.device) with
         | Some p -> set p 1.0
         | None -> ())
      | _, _ -> ()
    end
  in
  G.iter_edges note problem.graph;
  (* makespan *)
  let mk = List.fold_left (fun acc e -> max acc (e.Schedule.start + dt e)) 0 entries in
  set b.makespan_var (float_of_int mk);
  values

(* ---------- extraction ---------- *)

let extract b ~values =
  let problem = b.problem and slots = b.slots in
  let truthy var = values.(var) > 0.5 in
  let intval var = int_of_float (Float.round values.(var)) in
  (* devices for used free slots *)
  let devices = ref [] in
  let device_of_slot = Array.make (Array.length slots) None in
  Array.iteri
    (fun j slot ->
      match slot with
      | Fixed d -> device_of_slot.(j) <- Some d
      | Free { id } -> begin
        match Hashtbl.find_opt b.free_vars j with
        | None -> ()
        | Some fv ->
          if truthy fv.used then begin
            let cfg =
              List.find_opt (fun (_, yv) -> truthy yv) fv.config
            in
            match cfg with
            | None -> failwith "Ilp_model.extract: used slot without configuration"
            | Some ((cont, cap), _) ->
              let accs =
                List.filter_map (fun (a, av) -> if truthy av then Some a else None) fv.acc
              in
              let d = Device.make ~id ~container:cont ~capacity:cap ~accessories:accs in
              device_of_slot.(j) <- Some d;
              devices := d :: !devices
          end
      end)
    slots;
  let entries =
    Array.to_list b.layer_ops
    |> List.map (fun v ->
           let j =
             let found = ref (-1) in
             Array.iteri
               (fun j _ ->
                 match Hashtbl.find_opt b.bind_var (v, j) with
                 | Some bv when truthy bv -> found := j
                 | Some _ | None -> ())
               slots;
             if !found < 0 then failwith "Ilp_model.extract: unbound operation";
             !found
           in
           let device =
             match device_of_slot.(j) with
             | Some d -> d.Device.id
             | None -> failwith "Ilp_model.extract: op bound to unused slot"
           in
           {
             Schedule.op = v;
             device;
             start = intval (Hashtbl.find b.start_var v);
             min_duration = Operation.min_duration problem.ops.(v);
             transport = problem.transport v;
             indeterminate = Operation.is_indeterminate problem.ops.(v);
           })
    |> List.sort (fun a bb ->
           compare (a.Schedule.start, a.Schedule.op) (bb.Schedule.start, bb.Schedule.op))
  in
  (entries, List.rev !devices)
