open Microfluidics
module G = Flowgraph.Digraph

exception No_device of int

type outcome = { entries : Schedule.entry list; created : Device.t list }

type device_state = {
  device : Device.t;
  mutable busy : (int * int) list; (* disjoint, ascending *)
  mutable closed : bool; (* an indeterminate op occupies it to layer end *)
}

(* Earliest start >= ready where [len] minutes fit between busy intervals. *)
let earliest_fit st ~ready ~len =
  let rec go t = function
    | [] -> t
    | (s, e) :: rest -> if t + len <= s then t else go (max t e) rest
  in
  go ready st.busy

let occupy st ~start ~len =
  let rec insert = function
    | [] -> [ (start, start + len) ]
    | ((s, _) as iv) :: rest ->
      if start < s then (start, start + len) :: iv :: rest else iv :: insert rest
  in
  st.busy <- insert st.busy

let last_busy_end st = List.fold_left (fun acc (_, e) -> max acc e) 0 st.busy

let schedule_layer problem ~fresh_id =
  let { Layer_problem.ops; graph; layer; layer_of_op; bound_before; available;
        rule; max_devices; transport; cost; weights = w; routed;
        device_penalty } = problem
  in
  (* the paths this layer adds; earlier layers' are [routed] *)
  let paths = Hashtbl.create 32 in
  let path_known a b = a = b || routed a b || Hashtbl.mem paths (min a b, max a b) in
  let note_path a b = if a <> b then Hashtbl.replace paths (min a b, max a b) () in
  let in_layer v = layer_of_op.(v) = layer.Layering.index in
  let states = ref (List.map (fun d -> { device = d; busy = []; closed = false }) available) in
  let created = ref [] in
  let starts = Hashtbl.create 16 in
  (* ready time: in-layer parents impose finish + transport; parents from
     earlier layers finished before the boundary but their reagents still
     travel at the start of this layer *)
  let ready v =
    let parent acc p =
      if in_layer p then begin
        match Hashtbl.find_opt starts p with
        | Some s -> max acc (s + Operation.min_duration ops.(p) + transport p)
        | None -> acc (* scheduled later: impossible in topological order *)
      end
      else if layer_of_op.(p) < layer.Layering.index then max acc (transport p)
      else acc
    in
    List.fold_left parent 0 (G.pred graph v)
  in
  let device_of_op = Hashtbl.create 16 in
  (* a parent's device: this layer's binding, else an earlier layer's *)
  let parent_device p =
    match Hashtbl.find_opt device_of_op p with
    | Some d -> Some d
    | None -> bound_before p
  in
  (* Pick the best (state, start) for operation v. Mirrors the ILP
     objective: the weighted score trades start time against the
     integration cost of a brand-new device and a unit of routing effort
     for leaving a parent's device; smallest
     (score, not-parent-device, fresh, id) wins. A new minimal device is a
     candidate whenever the cap allows, so the w_time/w_area balance — not
     mere compatibility — decides between reuse and parallelism. *)
  let pick v ~ready ~len ~closing =
    let o = ops.(v) in
    let parents_devs = List.filter_map parent_device (G.pred graph v) in
    (* routing effort of binding v to device [dev]: one unit per parent
       whose reagents would cross a device pair not yet routed (21) *)
    let new_paths_to dev =
      List.fold_left
        (fun acc dp -> if path_known dp dev then acc else acc + 1)
        0 parents_devs
    in
    let score ~start ~new_cost ~dev_for_paths =
      (w.Schedule.w_time * start) + new_cost
      + (w.Schedule.w_paths * new_paths_to dev_for_paths)
    in
    let candidate st =
      if st.closed || not (Binding.op_fits rule o st.device) then None
      else begin
        let start =
          if closing then max ready (last_busy_end st)
          else earliest_fit st ~ready ~len
        in
        let on_parent = List.mem st.device.Device.id parents_devs in
        let pen = if st.busy = [] then device_penalty st.device.Device.id else 0 in
        let key =
          (score ~start ~new_cost:pen ~dev_for_paths:st.device.Device.id,
           (if on_parent then 0 else 1), 0, st.device.Device.id)
        in
        Some (key, `Existing st, start)
      end
    in
    let existing = List.filter_map candidate !states in
    let fresh_candidate =
      if List.length !states >= max_devices then []
      else begin
        let d = Binding.minimal_device o ~id:max_int (* id assigned on commit *) in
        let new_cost =
          Schedule.device_cost w cost d
          (* a fresh device is connected to no parent yet *)
          + (w.Schedule.w_paths * List.length (List.sort_uniq compare parents_devs))
        in
        [ (((w.Schedule.w_time * ready) + new_cost, 1, 1, max_int), `Fresh, ready) ]
      end
    in
    let best =
      List.fold_left
        (fun acc ((key, _, _) as cand) ->
          match acc with
          | Some (key0, _, _) when key0 <= key -> acc
          | Some _ | None -> Some cand)
        None (existing @ fresh_candidate)
    in
    match best with
    | Some (_, `Existing st, start) -> (st, start)
    | Some (_, `Fresh, start) ->
      let d = Binding.minimal_device o ~id:(fresh_id ()) in
      let st = { device = d; busy = []; closed = false } in
      states := !states @ [ st ];
      created := d :: !created;
      (st, start)
    | None -> raise (No_device v)
  in
  (* dependency order restricted to the layer, then by priority *)
  let topo = Flowgraph.Dag.topological_order ~keep:in_layer graph in
  (* stable pass: process in topological order, but among simultaneously
     ready operations prefer long critical paths: sort topological levels *)
  let scheduled_entries = ref [] in
  let place v ~closing =
    let len = Operation.min_duration ops.(v) + transport v in
    let r = ready v in
    let st, start = pick v ~ready:r ~len ~closing in
    occupy st ~start ~len;
    if closing then st.closed <- true;
    Hashtbl.replace starts v start;
    Hashtbl.replace device_of_op v st.device.Device.id;
    List.iter
      (fun p ->
        match parent_device p with
        | Some dp -> note_path dp st.device.Device.id
        | None -> ())
      (G.pred graph v);
    scheduled_entries :=
      {
        Schedule.op = v;
        device = st.device.Device.id;
        start;
        min_duration = Operation.min_duration ops.(v);
        transport = transport v;
        indeterminate = Operation.is_indeterminate ops.(v);
      }
      :: !scheduled_entries
  in
  (* topological order is mandatory; earliest-fit placement backfills gaps
     left by longer operations, so no extra priority sorting is needed *)
  let det_sorted =
    List.filter (fun v -> not (Operation.is_indeterminate ops.(v))) topo
  in
  List.iter (fun v -> place v ~closing:false) det_sorted;
  (* indeterminate tail: distinct devices, last on each, by (ready, id).
     An indeterminate op's in-layer parents are all determinate and placed
     by now, so placing the tail changes no ready time. *)
  let indet_sorted =
    List.map (fun v -> (ready v, v)) layer.Layering.indeterminate
    |> List.sort (fun (ra, a) (rb, b) -> if ra <> rb then compare ra rb else compare a b)
    |> List.map snd
  in
  List.iter (fun v -> place v ~closing:true) indet_sorted;
  (* constraint (14): every operation must start no later than each
     indeterminate operation's minimum end; delay indeterminate starts *)
  let max_start =
    Hashtbl.fold (fun _ s acc -> max acc s) starts 0
  in
  let bump e =
    if e.Schedule.indeterminate then begin
      let need = max_start - e.Schedule.min_duration in
      if e.Schedule.start < need then { e with Schedule.start = need } else e
    end
    else e
  in
  let entries =
    List.map bump !scheduled_entries
    |> List.sort (fun a b ->
           let open Schedule in
           if a.start <> b.start then compare a.start b.start else compare a.op b.op)
  in
  { entries; created = List.rev !created }
