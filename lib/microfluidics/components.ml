module Capacity = struct
  type t = Large | Medium | Small | Tiny

  let all = [ Large; Medium; Small; Tiny ]

  let rank = function Large -> 3 | Medium -> 2 | Small -> 1 | Tiny -> 0
  let compare a b = Stdlib.compare (rank a) (rank b)
  let equal a b = compare a b = 0

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
  let equal a b = a = b
  let compare = Stdlib.compare
  let to_string = function Ring -> "ring" | Chamber -> "chamber"
  let pp fmt c = Format.pp_print_string fmt (to_string c)

  let allowed_capacities = function
    | Ring -> Capacity.[ Large; Medium; Small ]
    | Chamber -> Capacity.[ Medium; Small; Tiny ]

  let capacity_allowed c cap = List.mem cap (allowed_capacities c)
end

module Accessory = struct
  type t = Pump | Heating_pad | Optical_system | Sieve_valve | Cell_trap

  let all = [ Pump; Heating_pad; Optical_system; Sieve_valve; Cell_trap ]
  let equal a b = a = b
  let compare = Stdlib.compare

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

  module Set = Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let set_of_list = Set.of_list
end
