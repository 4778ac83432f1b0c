open Components

type duration = Fixed of int | Indeterminate of { min_minutes : int }

type t = {
  id : int;
  name : string;
  container : Container.t option;
  capacity : Capacity.t option;
  accessories : Accessory.Set.t;
  duration : duration;
}

let make ~id ?container ?capacity ?(accessories = []) ~duration name =
  (match duration with
   | Fixed d when d <= 0 -> invalid_arg "Operation.make: non-positive duration"
   | Indeterminate { min_minutes } when min_minutes <= 0 ->
     invalid_arg "Operation.make: non-positive minimum duration"
   | Fixed _ | Indeterminate _ -> ());
  (match (container, capacity) with
   | Some c, Some cap when not (Container.capacity_allowed c cap) ->
     invalid_arg
       (Printf.sprintf "Operation.make: %s cannot have %s capacity"
          (Container.to_string c) (Capacity.to_string cap))
   | (Some _ | None), (Some _ | None) -> ());
  { id; name; container; capacity; accessories = Accessory.set_of_list accessories; duration }

let is_indeterminate o =
  match o.duration with Indeterminate _ -> true | Fixed _ -> false

let min_duration o =
  match o.duration with Fixed d -> d | Indeterminate { min_minutes } -> min_minutes

let compatible_with_device o (d : Device.t) =
  (match o.container with
   | Some c -> Container.equal c d.Device.container
   | None -> true)
  && (match o.capacity with
      | Some cap -> Capacity.equal cap d.Device.capacity
      | None -> true)
  && Accessory.Set.subset o.accessories d.Device.accessories

let requirement_signature o =
  let c = match o.container with Some c -> Container.to_string c | None -> "*" in
  let cap = match o.capacity with Some c -> Capacity.to_string c | None -> "*" in
  let accs =
    Accessory.Set.elements o.accessories
    |> List.map Accessory.short_code
    |> String.concat ""
  in
  Printf.sprintf "%s/%s{%s}" c cap accs

let pp fmt o =
  let dur =
    match o.duration with
    | Fixed d -> Printf.sprintf "%dm" d
    | Indeterminate { min_minutes } -> Printf.sprintf ">=%dm" min_minutes
  in
  Format.fprintf fmt "o%d[%s %s %s]" o.id o.name (requirement_signature o) dur
