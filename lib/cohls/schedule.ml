open Microfluidics

type entry = {
  op : int;
  device : int;
  start : int;
  min_duration : int;
  transport : int;
  indeterminate : bool;
}

type layer_schedule = {
  layer_index : int;
  entries : entry list;
  fixed_makespan : int;
}

type t = {
  assay : Assay.t;
  rule : Binding.rule;
  layering : Layering.t;
  chip : Chip.t;
  layers : layer_schedule array;
}

let fixed_makespan_of entries =
  List.fold_left (fun acc e -> max acc (e.start + e.min_duration + e.transport)) 0 entries

let entry_of_op t op =
  let find_in l = List.find_opt (fun e -> e.op = op) l.entries in
  Array.fold_left
    (fun acc l -> match acc with Some _ -> acc | None -> find_in l)
    None t.layers

let binding t op = Option.map (fun e -> e.device) (entry_of_op t op)

let total_fixed_minutes t =
  Array.fold_left (fun acc l -> acc + l.fixed_makespan) 0 t.layers

let device_count t = Chip.device_count t.chip
let path_count t = Chip.path_count t.chip

type breakdown = {
  fixed_minutes : int;
  devices : int;
  paths : int;
  area : int;
  processing : int;
  weighted : int;
}

type weights = { w_time : int; w_area : int; w_processing : int; w_paths : int }

let default_weights = { w_time = 100; w_area = 150; w_processing = 150; w_paths = 200 }

let device_cost weights cost d =
  (weights.w_area * Cost.device_area cost d)
  + (weights.w_processing * Cost.device_processing cost d)

let evaluate ?(weights = default_weights) cost t =
  let fixed_minutes = total_fixed_minutes t in
  let devices = device_count t in
  let paths = path_count t in
  let area = Chip.total_area cost t.chip in
  let processing = Chip.total_processing cost t.chip in
  let weighted =
    (weights.w_time * fixed_minutes)
    + (weights.w_area * area)
    + (weights.w_processing * processing)
    + (weights.w_paths * paths)
  in
  { fixed_minutes; devices; paths; area; processing; weighted }

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let ops = Assay.operations t.assay in
  let n = Array.length ops in
  (* coverage and layer membership *)
  let entry_of = Array.make n None in
  Array.iter
    (fun l ->
      List.iter
        (fun e ->
          if e.op < 0 || e.op >= n then err "entry for unknown op %d" e.op
          else begin
            (match entry_of.(e.op) with
             | Some _ -> err "op %d scheduled twice" e.op
             | None -> entry_of.(e.op) <- Some (l.layer_index, e));
            if t.layering.Layering.layer_of_op.(e.op) <> l.layer_index then
              err "op %d scheduled in layer %d but layered into %d" e.op
                l.layer_index
                t.layering.Layering.layer_of_op.(e.op)
          end)
        l.entries)
    t.layers;
  for v = 0 to n - 1 do
    if entry_of.(v) = None then err "op %d not scheduled" v
  done;
  let get v = entry_of.(v) in
  (* binding compatibility and entry consistency *)
  let check_entry v =
    match get v with
    | None -> ()
    | Some (_, e) ->
      (match Chip.find_device t.chip e.device with
       | None -> err "op %d bound to unknown device %d" v e.device
       | Some d ->
         if not (Binding.op_fits t.rule ops.(v) d) then
           err "op %d does not fit device %d under %s rule" v e.device
             (Binding.rule_name t.rule));
      if e.start < 0 then err "op %d starts at negative time" v;
      if e.min_duration <> Operation.min_duration ops.(v) then
        err "op %d entry duration %d <> operation %d" v e.min_duration
          (Operation.min_duration ops.(v));
      if e.indeterminate <> Operation.is_indeterminate ops.(v) then
        err "op %d indeterminate flag mismatch" v
  in
  for v = 0 to n - 1 do
    check_entry v
  done;
  (* dependencies (9): within a layer, child waits for execution+transport;
     across layers the layering check already enforces ordering *)
  let g = Assay.dependency_graph t.assay in
  let check_dep u v =
    match (get u, get v) with
    | Some (lu, eu), Some (lv, ev) when lu = lv ->
      if ev.start < eu.start + eu.min_duration + eu.transport then
        err "dependency %d->%d violated: child starts %d < %d" u v ev.start
          (eu.start + eu.min_duration + eu.transport)
    | Some _, Some _ | None, _ | _, None -> ()
  in
  Flowgraph.Digraph.iter_edges check_dep g;
  (* device exclusivity (10)-(13) within each layer *)
  let busy_conflict e1 e2 =
    e1.device = e2.device
    && e1.start < e2.start + e2.min_duration + e2.transport
    && e2.start < e1.start + e1.min_duration + e1.transport
  in
  Array.iter
    (fun l ->
      let rec pairwise = function
        | [] -> ()
        | e :: rest ->
          List.iter
            (fun e' ->
              if busy_conflict e e' then
                err "ops %d and %d overlap on device %d in layer %d" e.op e'.op
                  e.device l.layer_index)
            rest;
          pairwise rest
      in
      pairwise l.entries;
      (* indeterminate operations close the sub-schedule (14) *)
      let indets = List.filter (fun e -> e.indeterminate) l.entries in
      List.iter
        (fun i ->
          List.iter
            (fun e ->
              if e.start > i.start + i.min_duration then
                err "op %d starts after indeterminate %d may end (14)" e.op i.op;
              if (not e.indeterminate) && e.device = i.device
                 && e.start >= i.start then
                err "op %d uses device %d after indeterminate %d started" e.op
                  e.device i.op)
            l.entries)
        indets;
      let rec distinct = function
        | [] -> ()
        | i :: rest ->
          List.iter
            (fun i' ->
              if i.device = i'.device then
                err "indeterminate ops %d and %d share device %d" i.op i'.op
                  i.device)
            rest;
          distinct rest
      in
      distinct indets;
      (* makespan consistency *)
      let real = fixed_makespan_of l.entries in
      if real <> l.fixed_makespan then
        err "layer %d fixed makespan %d <> computed %d" l.layer_index
          l.fixed_makespan real)
    t.layers;
  (* transportation paths (21): an inter-device transfer needs a path *)
  let check_path u v =
    match (get u, get v) with
    | Some (_, eu), Some (_, ev) when eu.device <> ev.device ->
      if not (Chip.has_path t.chip eu.device ev.device) then
        err "transfer %d->%d lacks a path between devices %d and %d" u v
          eu.device ev.device
    | Some _, Some _ | None, _ | _, None -> ()
  in
  Flowgraph.Digraph.iter_edges check_path g;
  match !errors with [] -> Ok () | e -> Error (String.concat "; " (List.rev e))

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule of %s (%s): %d layers, %d devices, %d paths, fixed %dm@,"
    (Assay.name t.assay)
    (Binding.rule_name t.rule)
    (Array.length t.layers) (device_count t) (path_count t)
    (total_fixed_minutes t);
  Array.iter
    (fun l ->
      Format.fprintf fmt "  L%d (fixed %dm):@," l.layer_index l.fixed_makespan;
      List.iter
        (fun e ->
          Format.fprintf fmt "    t=%-4d o%-3d on d%-2d dur=%d%s tr=%d@," e.start
            e.op e.device e.min_duration
            (if e.indeterminate then "+I" else "")
            e.transport)
        l.entries)
    t.layers;
  Format.fprintf fmt "@]"
