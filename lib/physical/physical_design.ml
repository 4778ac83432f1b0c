type t = { floorplan : Floorplan.t; routing : Router.t }

let of_schedule cost (s : Cohls.Schedule.t) =
  let chip = s.Cohls.Schedule.chip in
  let devices = Microfluidics.Chip.devices chip in
  let path_usage = Microfluidics.Chip.path_usage chip in
  let floorplan = Floorplan.plan ~cost ~devices ~path_usage () in
  let routing = Router.route_all floorplan ~path_usage in
  { floorplan; routing }

let transport_times prog design ~op_count ~binding ~children =
  let lengths = List.map (fun r -> r.Router.length) design.routing.Router.routes in
  let max_len = List.fold_left max 1 lengths in
  let term_of_length len =
    let bucket = (len - 1) * prog.Cohls.Transport.term_count / max_len in
    Cohls.Transport.term prog bucket
  in
  let slowest = Cohls.Transport.term prog (prog.Cohls.Transport.term_count - 1) in
  let times = Array.make op_count slowest in
  for op = 0 to op_count - 1 do
    match binding op with
    | None -> ()
    | Some dev ->
      let worst acc c =
        match binding c with
        | None -> acc
        | Some dev' ->
          if dev = dev' then acc
          else begin
            match Router.channel_length design.routing dev dev' with
            | Some len -> max acc (term_of_length len)
            | None -> max acc slowest
          end
      in
      times.(op) <- List.fold_left worst 0 (children op)
  done;
  Cohls.Transport.of_times times

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
