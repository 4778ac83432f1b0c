open Microfluidics

type exposure = { exposed_slots : int; total_slots : int; worst_chain : int }

(* The assay with indeterminacy erased, over the same dependency graph. *)
let determinise assay =
  Assay.derive ~name:(Assay.name assay ^ "-static")
    (Array.map
       (fun (o : Operation.t) ->
         { o with Operation.duration = Operation.Fixed (Operation.min_duration o) })
       (Assay.operations assay))
    (Assay.dependency_graph assay)

let static_schedule ?(config = Synthesis.default_config) assay =
  let det = determinise assay in
  let r = Synthesis.run ~config det in
  r.Synthesis.final

(* Broken-slot exposure of a schedule against the original assay (whose
   indeterminacy information is intact): a slot is exposed to the
   indeterminate operations of its own layer that may overrun before it
   starts. In a hybrid schedule constraint (14) protects every slot inside
   a layer, and boundary shifts are controlled, not breaking; the static
   schedule is one layer, so there every slot after an indeterminate
   minimum end counts. *)
let layer_exposure (s : Schedule.t) ~original =
  let ops = Assay.operations original in
  let exposed = Hashtbl.create 16 in
  let worst = ref 0 in
  let total = ref 0 in
  Array.iter
    (fun (l : Schedule.layer_schedule) ->
      total := !total + List.length l.Schedule.entries;
      let indets =
        List.filter_map
          (fun (e : Schedule.entry) ->
            if Operation.is_indeterminate ops.(e.Schedule.op) then
              Some (e.Schedule.start + e.Schedule.min_duration)
            else None)
          l.Schedule.entries
      in
      List.iter
        (fun min_end ->
          let count = ref 0 in
          List.iter
            (fun (e : Schedule.entry) ->
              if e.Schedule.start > min_end then begin
                incr count;
                Hashtbl.replace exposed e.Schedule.op ()
              end)
            l.Schedule.entries;
          if !count > !worst then worst := !count)
        indets)
    s.Schedule.layers;
  { exposed_slots = Hashtbl.length exposed; total_slots = !total; worst_chain = !worst }

let compare_hybrid ?(config = Synthesis.default_config) assay =
  let static = static_schedule ~config assay in
  let hybrid = (Synthesis.run ~config assay).Synthesis.final in
  (layer_exposure static ~original:assay, layer_exposure hybrid ~original:assay)
