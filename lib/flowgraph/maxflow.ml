(* Edmonds–Karp with an adjacency list of paired residual arcs.
   Arc 2k and 2k+1 are mutual inverses; residual capacity lives in [cap]. *)

type t = {
  n : int;
  mutable heads : int array array; (* per-vertex arc ids, rebuilt lazily *)
  mutable dirty : bool;
  adj : int list array; (* per-vertex arc ids while under construction *)
  mutable dst : int array;
  mutable cap : int array;
  mutable orig : int array; (* original capacity, to reset the flow *)
  mutable arcs : int;
}

let infinity = max_int

let create n =
  if n < 0 then invalid_arg "Maxflow.create";
  {
    n;
    heads = [||];
    dirty = true;
    adj = Array.make (Stdlib.max n 1) [];
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    orig = Array.make 16 0;
    arcs = 0;
  }

let grow t =
  let len = Array.length t.dst in
  if t.arcs + 2 > len then begin
    let len' = 2 * len in
    let extend a = Array.append a (Array.make (len' - len) 0) in
    t.dst <- extend t.dst;
    t.cap <- extend t.cap;
    t.orig <- extend t.orig
  end

let saturating_add a b =
  if a = infinity || b = infinity then infinity
  else if a > infinity - b then infinity
  else a + b

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  if src = dst then invalid_arg "Maxflow.add_edge: self-loop";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  (* merge parallel edges *)
  let existing = List.find_opt (fun a -> t.dst.(a) = dst && a land 1 = 0) t.adj.(src) in
  match existing with
  | Some a ->
    t.cap.(a) <- saturating_add t.cap.(a) cap;
    t.orig.(a) <- saturating_add t.orig.(a) cap
  | None ->
    grow t;
    let a = t.arcs in
    t.dst.(a) <- dst;
    t.cap.(a) <- cap;
    t.orig.(a) <- cap;
    t.dst.(a + 1) <- src;
    t.cap.(a + 1) <- 0;
    t.orig.(a + 1) <- 0;
    t.adj.(src) <- a :: t.adj.(src);
    t.adj.(dst) <- (a + 1) :: t.adj.(dst);
    t.arcs <- t.arcs + 2;
    t.dirty <- true

let rebuild_heads t =
  if t.dirty then begin
    t.heads <- Array.map (fun l -> Array.of_list (List.rev l)) (Array.sub t.adj 0 t.n);
    t.dirty <- false
  end

let reset_flow t =
  Array.blit t.orig 0 t.cap 0 t.arcs

(* One BFS phase: find a shortest augmenting path, return its bottleneck
   and the arc used to enter each vertex (or [-1]). *)
let bfs t ~source ~sink =
  let enter = Array.make t.n (-1) in
  let visited = Array.make t.n false in
  visited.(source) <- true;
  let q = Queue.create () in
  Queue.push source q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    let arcs = t.heads.(u) in
    let i = ref 0 in
    while (not !found) && !i < Array.length arcs do
      let a = arcs.(!i) in
      let v = t.dst.(a) in
      if (not visited.(v)) && t.cap.(a) > 0 then begin
        visited.(v) <- true;
        enter.(v) <- a;
        if v = sink then found := true else Queue.push v q
      end;
      incr i
    done
  done;
  if !found then Some enter else None

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  rebuild_heads t;
  reset_flow t;
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    match bfs t ~source ~sink with
    | None -> continue := false
    | Some enter ->
      let rec bottleneck v acc =
        if v = source then acc
        else begin
          let a = enter.(v) in
          bottleneck t.dst.(a lxor 1) (Stdlib.min acc t.cap.(a))
        end
      in
      let b = bottleneck sink infinity in
      let rec push v =
        if v <> source then begin
          let a = enter.(v) in
          if t.cap.(a) <> infinity then t.cap.(a) <- t.cap.(a) - b;
          t.cap.(a lxor 1) <- saturating_add t.cap.(a lxor 1) b;
          push t.dst.(a lxor 1)
        end
      in
      if b = infinity then failwith "Maxflow.max_flow: unbounded flow";
      push sink;
      total := saturating_add !total b
  done;
  !total

let min_cut_nearest_sink t ~source ~sink =
  let value = max_flow t ~source ~sink in
  (* Backward reachability to the sink along residual arcs. For any arc
     [b : u -> w] in u's list, its paired inverse [b lxor 1 : w -> u] has
     residual capacity [cap.(b lxor 1)]; that inverse is an arc INTO u, so u
     is reached from w iff that capacity is positive. *)
  let reaches = Array.make t.n false in
  let rec visit u =
    if not reaches.(u) then begin
      reaches.(u) <- true;
      let follow b =
        let v = t.dst.(b) in
        (* residual arc v -> u exists iff inverse of b has capacity *)
        if t.cap.(b lxor 1) > 0 then visit v
      in
      Array.iter follow t.heads.(u)
    end
  in
  visit sink;
  ignore source;
  (value, Array.map not reaches)
