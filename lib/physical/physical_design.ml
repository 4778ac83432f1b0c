type t = { floorplan : Floorplan.t; routing : Router.t }

let of_schedule cost (s : Cohls.Schedule.t) =
  let chip = s.Cohls.Schedule.chip in
  let devices = Microfluidics.Chip.devices chip in
  let path_usage = Microfluidics.Chip.path_usage chip in
  let floorplan = Floorplan.plan ~cost ~devices ~path_usage () in
  let routing = Router.route_all floorplan ~path_usage in
  { floorplan; routing }

let quality t =
  ( Floorplan.die_area t.floorplan,
    t.routing.Router.total_length,
    t.routing.Router.crossings )

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@,routing: %d channels, length %d, %d crossings, %d failures@]"
    Floorplan.pp t.floorplan
    (List.length t.routing.Router.routes)
    t.routing.Router.total_length t.routing.Router.crossings
    (List.length t.routing.Router.failures)
