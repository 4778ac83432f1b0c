open Components

type t = {
  id : int;
  container : Container.t;
  capacity : Capacity.t;
  accessories : Accessory.Set.t;
}

let make ~id ~container ~capacity ~accessories =
  if not (Container.capacity_allowed container capacity) then
    invalid_arg
      (Printf.sprintf "Device.make: %s cannot have %s capacity"
         (Container.to_string container)
         (Capacity.to_string capacity));
  { id; container; capacity; accessories = Accessory.set_of_list accessories }

let compare a b = Stdlib.compare a.id b.id

let signature d =
  let accs =
    Accessory.Set.elements d.accessories
    |> List.map Accessory.short_code
    |> String.concat ""
  in
  Printf.sprintf "%s/%s{%s}"
    (Container.to_string d.container)
    (Capacity.to_string d.capacity)
    accs

let pp fmt d = Format.fprintf fmt "d%d:%s" d.id (signature d)
