open Microfluidics

type rule = Component_oriented | Exact_signature

let rule_name = function
  | Component_oriented -> "component-oriented"
  | Exact_signature -> "exact-signature (conventional)"

let resolved_container (o : Operation.t) =
  match o.Operation.container with
  | Some c -> c
  | None -> begin
    (* A chamber is cheaper than a ring; only a large capacity forces a
       ring (constraints (3)-(4)). *)
    match o.Operation.capacity with
    | Some Components.Capacity.Large -> Components.Container.Ring
    | Some (Components.Capacity.Medium | Components.Capacity.Small | Components.Capacity.Tiny)
    | None ->
      Components.Container.Chamber
  end

let resolved_capacity (o : Operation.t) =
  match o.Operation.capacity with
  | Some cap -> cap
  | None -> begin
    match resolved_container o with
    | Components.Container.Ring -> Components.Capacity.Small
    | Components.Container.Chamber -> Components.Capacity.Tiny
  end

let minimal_device (o : Operation.t) ~id =
  Device.make ~id ~container:(resolved_container o)
    ~capacity:(resolved_capacity o)
    ~accessories:(Components.Accessory.Set.elements o.Operation.accessories)

let op_fits rule (o : Operation.t) (d : Device.t) =
  match rule with
  | Component_oriented -> Operation.compatible_with_device o d
  | Exact_signature ->
    (* The conventional pseudo-type of an operation is its resolved minimal
       configuration; a device executes only operations of its own type. *)
    Components.Container.equal (resolved_container o) d.Device.container
    && Components.Capacity.equal (resolved_capacity o) d.Device.capacity
    && Components.Accessory.Set.equal o.Operation.accessories d.Device.accessories

