module Capacity = struct
  type t = Large | Medium | Small | Tiny

  let all = [ Large; Medium; Small; Tiny ]

  let rank = function Large -> 3 | Medium -> 2 | Small -> 1 | Tiny -> 0
  let compare a b = Stdlib.compare (rank a) (rank b)
  let equal (a : t) b = a = b

  let to_string = function
    | Large -> "large"
    | Medium -> "medium"
    | Small -> "small"
    | Tiny -> "tiny"

  let pp fmt c = Format.pp_print_string fmt (to_string c)

  let volume_range = function
    | Tiny -> (0.5, 5.0)
    | Small -> (5.0, 25.0)
    | Medium -> (25.0, 100.0)
    | Large -> (100.0, 500.0)

  let of_volume v =
    let fits c =
      let lo, hi = volume_range c in
      v >= lo && (v < hi || (c = Large && v <= hi))
    in
    List.find_opt fits [ Tiny; Small; Medium; Large ]
end

module Container = struct
  type t = Ring | Chamber

  let all = [ Ring; Chamber ]
  let equal (a : t) b = a = b
  let compare (a : t) b = Stdlib.compare a b
  let to_string = function Ring -> "ring" | Chamber -> "chamber"
  let pp fmt c = Format.pp_print_string fmt (to_string c)

  let allowed_capacities = function
    | Ring -> Capacity.[ Large; Medium; Small ]
    | Chamber -> Capacity.[ Medium; Small; Tiny ]

  let capacity_allowed c cap = List.exists (Capacity.equal cap) (allowed_capacities c)
end

module Accessory = struct
  type t = Pump | Heating_pad | Optical_system | Sieve_valve | Cell_trap

  let all = [ Pump; Heating_pad; Optical_system; Sieve_valve; Cell_trap ]
  let equal (a : t) b = a = b
  let compare (a : t) b = Stdlib.compare a b

  let to_string = function
    | Pump -> "pump"
    | Heating_pad -> "heating-pad"
    | Optical_system -> "optical-system"
    | Sieve_valve -> "sieve-valve"
    | Cell_trap -> "cell-trap"

  let short_code = function
    | Pump -> "p"
    | Heating_pad -> "h"
    | Optical_system -> "o"
    | Sieve_valve -> "s"
    | Cell_trap -> "c"

  let pp fmt a = Format.pp_print_string fmt (to_string a)

  module Set = struct
    type elt = t
    type t = int (* bit [i] holds the [i]-th accessory of [all] *)

    let bit : elt -> int = function
      | Pump -> 1
      | Heating_pad -> 2
      | Optical_system -> 4
      | Sieve_valve -> 8
      | Cell_trap -> 16

    let empty = 0
    let is_empty s = s = 0
    let mem a s = s land bit a <> 0
    let add a s = s lor bit a
    let of_list l = List.fold_left (fun s a -> add a s) empty l
    let union = ( lor )
    let subset a b = a land lnot b = 0
    let equal (a : t) b = a = b
    let fold f s acc = List.fold_left (fun acc a -> if mem a s then f a acc else acc) acc all
    let iter f s = List.iter (fun a -> if mem a s then f a) all
    let elements s = List.filter (fun a -> mem a s) all
    let cardinal s = fold (fun _ n -> n + 1) s 0

    (* [Set.Make]'s order: the ascending element lists, lexicographically.
       At the lowest differing element, the set that holds it is smaller
       unless the other set holds nothing above it. *)
    let compare a b =
      let d = a lxor b in
      if d = 0 then 0
      else begin
        let low = d land -d in
        let above s = s land lnot ((2 * low) - 1) <> 0 in
        if a land low <> 0 then (if above b then -1 else 1)
        else if above a then 1
        else -1
      end
  end

  let set_of_list = Set.of_list
end
