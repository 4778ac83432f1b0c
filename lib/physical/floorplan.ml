open Microfluidics

type rect = { device : int; x : int; y : int; w : int; h : int }

type t = { rects : rect list; width : int; height : int }

(* Roughly square footprint with w*h >= area. *)
let footprint area =
  let area = max 1 area in
  let w = int_of_float (ceil (sqrt (float_of_int area))) in
  let h = (area + w - 1) / w in
  (w, h)

(* Empty cells around every rectangle, so the router always has a channel. *)
let halo = 1

let plan ~cost ~devices ~path_usage () =
  let n = List.length devices in
  if n = 0 then { rects = []; width = 0; height = 0 }
  else begin
    (* order devices by connectivity weight, heaviest first *)
    let weight d =
      List.fold_left
        (fun acc ((a, b), u) ->
          if a = d.Device.id || b = d.Device.id then acc + u else acc)
        0 path_usage
    in
    let ordered =
      List.sort
        (fun d1 d2 ->
          let w1 = weight d1 and w2 = weight d2 in
          if w1 <> w2 then compare w2 w1 else compare d1.Device.id d2.Device.id)
        devices
    in
    (* estimate a die wide enough for a near-square arrangement *)
    let total_area =
      List.fold_left
        (fun acc d ->
          let w, h = footprint (Cost.device_area cost d) in
          acc + ((w + halo) * (h + halo)))
        0 devices
    in
    let die_w = max 4 (int_of_float (ceil (sqrt (float_of_int total_area *. 1.8)))) in
    (* shelf packing: place left to right, new shelf when the row is full *)
    let rects = ref [] in
    let cx = ref halo and cy = ref halo in
    let shelf_h = ref 0 in
    let place d =
      let w, h = footprint (Cost.device_area cost d) in
      if !cx + w + halo > die_w then begin
        cx := halo;
        cy := !cy + !shelf_h + halo;
        shelf_h := 0
      end;
      rects := { device = d.Device.id; x = !cx; y = !cy; w; h } :: !rects;
      cx := !cx + w + halo;
      if h > !shelf_h then shelf_h := h
    in
    List.iter place ordered;
    let rects = List.sort (fun a b -> compare a.device b.device) !rects in
    let height =
      List.fold_left (fun acc r -> max acc (r.y + r.h)) 0 rects + halo
    in
    { rects; width = die_w; height }
  end

let rect_of t d = List.find_opt (fun r -> r.device = d) t.rects

let die_area t = t.width * t.height

let occupied t ~x ~y =
  List.exists (fun r -> x >= r.x && x < r.x + r.w && y >= r.y && y < r.y + r.h) t.rects

let port_of t d =
  match rect_of t d with
  | None -> raise Not_found
  | Some r -> (r.x + (r.w / 2), r.y + r.h) (* centre of the bottom edge *)

let pp fmt t =
  Format.fprintf fmt "@[<v>floorplan %dx%d (%d devices):@," t.width t.height
    (List.length t.rects);
  List.iter
    (fun r ->
      Format.fprintf fmt "  d%-3d @@ (%d,%d) %dx%d@," r.device r.x r.y r.w r.h)
    t.rects;
  Format.fprintf fmt "@]"
