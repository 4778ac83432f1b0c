type progression = { min_term : int; max_term : int; term_count : int }

let default_progression = { min_term = 2; max_term = 10; term_count = 5 }

let validate p =
  if p.term_count < 1 then invalid_arg "Transport: term_count must be >= 1";
  if p.min_term < 0 || p.max_term < p.min_term then
    invalid_arg "Transport: need 0 <= min_term <= max_term"

let term p k =
  validate p;
  let k = max 0 (min (p.term_count - 1) k) in
  if p.term_count = 1 then p.min_term
  else p.min_term + (k * (p.max_term - p.min_term) / (p.term_count - 1))

type t = int array

let constant ~op_count t0 =
  if t0 < 0 then invalid_arg "Transport.constant: negative time";
  Array.make op_count t0

let time t op = t.(op)

let key a b = (min a b, max a b)

(* Shared skeleton: [path_time] prices one inter-device pair. *)
let refine_with ~op_count ~binding ~children ~path_time ~slowest =
  let times = Array.make op_count slowest in
  for op = 0 to op_count - 1 do
    match binding op with
    | None -> ()
    | Some dev ->
      let kids = children op in
      let child_time acc c =
        match binding c with
        | None -> acc
        | Some dev' ->
          if dev = dev' then acc (* same device: free *)
          else max acc (path_time (key dev dev'))
      in
      let t = List.fold_left child_time 0 kids in
      times.(op) <- t
  done;
  times

let refine p ~op_count ~binding ~children ~path_usage =
  validate p;
  let npaths = List.length path_usage in
  let rank_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (pair, _) -> Hashtbl.replace tbl pair i) path_usage;
    tbl
  in
  (* Usage rank 0 (most used) -> shortest term; the ranks are spread evenly
     over the progression terms. *)
  let path_time pair =
    match Hashtbl.find_opt rank_of pair with
    | None -> term p (p.term_count - 1)
    | Some r ->
      let bucket = if npaths <= 1 then 0 else r * p.term_count / npaths in
      term p bucket
  in
  refine_with ~op_count ~binding ~children ~path_time
    ~slowest:(term p (p.term_count - 1))

let of_layout p ~op_count ~binding ~children ~layout =
  validate p;
  let max_len =
    List.fold_left (fun acc (_, l) -> max acc l) 1 layout.Microfluidics.Layout.lengths
  in
  let path_time (a, b) =
    match Microfluidics.Layout.path_length layout a b with
    | None -> term p (p.term_count - 1)
    | Some len ->
      let bucket = (len - 1) * p.term_count / max_len in
      term p bucket
  in
  refine_with ~op_count ~binding ~children ~path_time
    ~slowest:(term p (p.term_count - 1))

let pp fmt t =
  Format.fprintf fmt "@[<h>transport[";
  Array.iteri (fun i x -> Format.fprintf fmt "%s%d" (if i > 0 then " " else "") x) t;
  Format.fprintf fmt "]@]"
