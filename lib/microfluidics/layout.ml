type placement = { device : int; row : int; col : int }

type t = {
  placements : placement list;
  side : int;
  lengths : ((int * int) * int) list;
}

let key a b = (min a b, max a b)

let place ~device_ids ~path_usage =
  let n = List.length device_ids in
  let side =
    let rec grow s = if s * s >= n then s else grow (s + 1) in
    grow 1
  in
  let occupied = Hashtbl.create 16 in
  let position = Hashtbl.create 16 in
  let free_cells () =
    let acc = ref [] in
    for r = side - 1 downto 0 do
      for c = side - 1 downto 0 do
        if not (Hashtbl.mem occupied (r, c)) then acc := (r, c) :: !acc
      done
    done;
    !acc
  in
  let put d (r, c) =
    Hashtbl.replace occupied (r, c) ();
    Hashtbl.replace position d (r, c)
  in
  (* Connectivity weight of each device = total usage of incident paths. *)
  let weight d =
    List.fold_left
      (fun acc ((a, b), u) -> if a = d || b = d then acc + u else acc)
      0 path_usage
  in
  let order =
    List.sort
      (fun a b ->
        let wa = weight a and wb = weight b in
        if wa <> wb then compare wb wa else compare a b)
      device_ids
  in
  let dist (r1, c1) (r2, c2) = abs (r1 - r2) + abs (c1 - c2) in
  let place_one d =
    if not (Hashtbl.mem position d) then begin
      let cells = free_cells () in
      match cells with
      | [] -> ()
      | first :: _ ->
        (* Weighted distance to already-placed neighbours; centre-ish tie
           preference comes from cell enumeration order. *)
        let score cell =
          List.fold_left
            (fun acc ((a, b), u) ->
              let other = if a = d then Some b else if b = d then Some a else None in
              match other with
              | Some o -> begin
                match Hashtbl.find_opt position o with
                | Some p -> acc + (u * dist cell p)
                | None -> acc
              end
              | None -> acc)
            0 path_usage
        in
        let best =
          List.fold_left
            (fun (bc, bs) cell ->
              let s = score cell in
              if s < bs then (cell, s) else (bc, bs))
            (first, score first) cells
        in
        put d (fst best)
    end
  in
  List.iter place_one order;
  let placements =
    List.map
      (fun d ->
        let r, c = Hashtbl.find position d in
        { device = d; row = r; col = c })
      (List.sort compare device_ids)
  in
  let lengths =
    List.map
      (fun ((a, b), _) ->
        let pa = Hashtbl.find_opt position a and pb = Hashtbl.find_opt position b in
        let len = match (pa, pb) with
          | Some x, Some y -> max 1 (dist x y)
          | _, _ -> side
        in
        (key a b, len))
      path_usage
  in
  { placements; side; lengths }

let path_length t a b = List.assoc_opt (key a b) t.lengths

let pp fmt t =
  Format.fprintf fmt "@[<v>layout %dx%d:@," t.side t.side;
  List.iter
    (fun p -> Format.fprintf fmt "  d%d @@ (%d,%d)@," p.device p.row p.col)
    t.placements;
  Format.fprintf fmt "@]"
