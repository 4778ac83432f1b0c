(* The §4.1 arithmetic progression: 2..10 minutes in 5 terms. *)
let min_term = 2
let max_term = 10
let term_count = 5

let term k =
  let k = max 0 (min (term_count - 1) k) in
  min_term + (k * (max_term - min_term) / (term_count - 1))

type t = int array

let constant ~op_count t0 =
  if t0 < 0 then invalid_arg "Transport.constant: negative time";
  Array.make op_count t0

let time t op = t.(op)

let key a b = (min a b, max a b)

(* Shared skeleton: [path_time] prices one inter-device pair. *)
let refine_with ~op_count ~binding ~children ~path_time =
  let times = Array.make op_count max_term in
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

let refine ~op_count ~binding ~children ~path_usage =
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
    | None -> max_term
    | Some r -> term (if npaths <= 1 then 0 else r * term_count / npaths)
  in
  refine_with ~op_count ~binding ~children ~path_time

let of_layout ~op_count ~binding ~children ~layout =
  let max_len =
    List.fold_left (fun acc (_, l) -> max acc l) 1 layout.Microfluidics.Layout.lengths
  in
  let path_time (a, b) =
    match Microfluidics.Layout.path_length layout a b with
    | None -> max_term
    | Some len -> term ((len - 1) * term_count / max_len)
  in
  refine_with ~op_count ~binding ~children ~path_time

let pp fmt t =
  Format.fprintf fmt "@[<h>transport[";
  Array.iteri (fun i x -> Format.fprintf fmt "%s%d" (if i > 0 then " " else "") x) t;
  Format.fprintf fmt "]@]"
