type t = {
  devices : (int, Device.t) Hashtbl.t;
  paths : (int * int, int) Hashtbl.t;
}

let create () = { devices = Hashtbl.create 16; paths = Hashtbl.create 16 }

let add_device t (d : Device.t) =
  if Hashtbl.mem t.devices d.Device.id then
    invalid_arg "Chip.add_device: duplicate device id";
  Hashtbl.replace t.devices d.Device.id d

let device_count t = Hashtbl.length t.devices

let devices t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.devices []
  |> List.sort Device.compare

let find_device t id = Hashtbl.find_opt t.devices id

let note_transport t ~src ~dst =
  if not (Hashtbl.mem t.devices src) then
    invalid_arg "Chip.note_transport: unknown source device";
  if not (Hashtbl.mem t.devices dst) then
    invalid_arg "Chip.note_transport: unknown destination device";
  if src <> dst then begin
    let key = (min src dst, max src dst) in
    let cur = match Hashtbl.find_opt t.paths key with Some n -> n | None -> 0 in
    Hashtbl.replace t.paths key (cur + 1)
  end

let path_count t = Hashtbl.length t.paths
let has_path t a b = Hashtbl.mem t.paths (min a b, max a b)

let path_usage t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.paths []
  |> List.sort (fun (ka, na) (kb, nb) ->
         if na <> nb then compare nb na else compare ka kb)

let total_area cost t =
  List.fold_left (fun acc d -> acc + Cost.device_area cost d) 0 (devices t)

let total_processing cost t =
  List.fold_left (fun acc d -> acc + Cost.device_processing cost d) 0 (devices t)

let pp fmt t =
  Format.fprintf fmt "@[<v>chip: %d devices, %d paths@," (device_count t) (path_count t);
  List.iter (fun d -> Format.fprintf fmt "  %a@," Device.pp d) (devices t);
  List.iter
    (fun ((a, b), n) -> Format.fprintf fmt "  path d%d--d%d (used %d)@," a b n)
    (path_usage t);
  Format.fprintf fmt "@]"
