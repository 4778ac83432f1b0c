(* See factor.mli. Every array a refactorisation needs is allocated once,
   with the factor, and written before it is read; a row is marked reached
   with a generation number that never repeats, so a refactorisation
   aborted by [Singular] leaves nothing a later one could mistake for its
   own. *)

exception Singular

let eps = 1e-9

type eta = {
  e_row : int;
  e_pivot : float;  (* 1 / alpha_r *)
  e_idx : int array;  (* rows i <> e_row with nonzero alpha_i *)
  e_val : float array;  (* -alpha_i / alpha_r, parallel to [e_idx] *)
}

let dummy_eta = { e_row = 0; e_pivot = 1.0; e_idx = [||]; e_val = [||] }

type t = {
  m : int;
  cidx : int array array;  (* the structural columns, never written *)
  cval : float array array;
  mutable etas : eta array;
  mutable n_etas : int;
  mutable used : int;  (* high-water mark of [n_etas] since [clear] *)
  mutable base : int;  (* [n_etas] when the file was last rebuilt *)
  mutable gen : int;
  v : float array;  (* a column being eliminated; all zero between columns *)
  rows : int array;  (* rows of the column an eta is being built from *)
  eta_at : int array;  (* row -> position of its factorisation eta, or -1 *)
  reach : int array;  (* rows the column being eliminated reaches *)
  row_stamp : int array;  (* rows in [reach], where [= gen] *)
  heap : int array;  (* eta positions due to fire, a min-heap; once empty,
                         a run of [reach] being merged *)
  runs : int array;  (* where the ascending runs of [reach] start *)
  order : int array;
  row_count : int array;
  cursor : int array;
  fifo : int array;  (* rows for pass 2, then the bump's min-heap *)
  taken : bool array;
  placed : bool array;
  unplaced_start : int array;  (* [m + 1] *)
  unplaced : int array;  (* [nnz]: CSR of the unplaced basis columns *)
}

let create ~nrows:m cidx cval =
  let nnz = Array.fold_left (fun acc idx -> acc + Array.length idx) 0 cidx in
  let im () = Array.make m 0 in
  {
    m;
    cidx;
    cval;
    etas = [| dummy_eta |];
    n_etas = 0;
    used = 0;
    base = 0;
    gen = 0;
    v = Array.make m 0.0;
    rows = im ();
    eta_at = im ();
    reach = im ();
    row_stamp = im ();
    heap = im ();
    runs = im ();
    order = im ();
    row_count = im ();
    cursor = im ();
    fifo = im ();
    taken = Array.make m false;
    placed = Array.make m false;
    unplaced_start = Array.make (m + 1) 0;
    unplaced = Array.make nnz 0;
  }

let push f e =
  if f.n_etas = Array.length f.etas then begin
    let bigger = Array.make (2 * f.n_etas) dummy_eta in
    Array.blit f.etas 0 bigger 0 f.n_etas;
    f.etas <- bigger
  end;
  f.etas.(f.n_etas) <- e;
  f.n_etas <- f.n_etas + 1;
  if f.n_etas > f.used then f.used <- f.n_etas

let ftran f v =
  for t = 0 to f.n_etas - 1 do
    let e = f.etas.(t) in
    let x = v.(e.e_row) in
    if Float.abs x > eps then begin
      v.(e.e_row) <- e.e_pivot *. x;
      let idx = e.e_idx and vl = e.e_val in
      for k = 0 to Array.length idx - 1 do
        v.(idx.(k)) <- v.(idx.(k)) +. (vl.(k) *. x)
      done
    end
  done

let btran f y =
  for t = f.n_etas - 1 downto 0 do
    let e = f.etas.(t) in
    let acc = ref (e.e_pivot *. y.(e.e_row)) in
    let idx = e.e_idx and vl = e.e_val in
    for k = 0 to Array.length idx - 1 do
      acc := !acc +. (vl.(k) *. y.(idx.(k)))
    done;
    y.(e.e_row) <- (if Float.abs !acc <= eps then 0.0 else !acc)
  done

(* The eta of pivoting the FTRAN'd column [alpha] on [row], built from the
   rows [rows.(0 .. cnt-1)]: ascending, every row with [|alpha_i| > eps],
   [row] among them. *)
let eta_of_rows ~row alpha rows cnt =
  let ar = alpha.(row) in
  let idx = Array.make (cnt - 1) 0 and vl = Array.make (cnt - 1) 0.0 in
  let k = ref 0 in
  for c = 0 to cnt - 1 do
    let i = rows.(c) in
    if i <> row then begin
      idx.(!k) <- i;
      vl.(!k) <- -.(alpha.(i) /. ar);
      incr k
    end
  done;
  { e_row = row; e_pivot = 1.0 /. ar; e_idx = idx; e_val = vl }

let update f ~row alpha rows cnt = push f (eta_of_rows ~row alpha rows cnt)

(* Insert [q] into the min-heap [heap.(0 .. n-1)]; the heap then holds
   [n + 1] entries. *)
let heap_push (heap : int array) n q =
  let c = ref n in
  while !c > 0 && heap.((!c - 1) / 2) > q do
    heap.(!c) <- heap.((!c - 1) / 2);
    c := (!c - 1) / 2
  done;
  heap.(!c) <- q

(* Remove and return the least entry of the min-heap [heap.(0 .. n-1)],
   [n > 0]; the heap then holds [n - 1] entries. *)
let heap_pop (heap : int array) n =
  let top = heap.(0) and last = heap.(n - 1) and n = n - 1 in
  let c = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !c) + 1 in
    if l >= n then sifting := false
    else begin
      let s = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
      if heap.(s) < last then begin
        heap.(!c) <- heap.(s);
        c := s
      end
      else sifting := false
    end
  done;
  if n > 0 then heap.(!c) <- last;
  top

(* Put the [len] rows of [reach] a bump column reached, which carry the
   stamp [f.gen], in ascending order. They arrive as [nruns] ascending runs
   starting at [runs.(0 .. nruns-1)]: the column's own rows, then the rows
   each applied eta reached first. While they are at most an eighth of the
   [m] rows, each run is merged into the sorted rows before it, from the
   back; otherwise one sweep over the stamps lists them. *)
let sort_reach f ~nruns len =
  let reach = f.reach in
  if len * 8 <= f.m then begin
    let runs = f.runs and tmp = f.heap in
    for r = 1 to nruns - 1 do
      let lo = runs.(r) and hi = if r + 1 < nruns then runs.(r + 1) else len in
      if reach.(lo - 1) > reach.(lo) then begin
        for k = lo to hi - 1 do
          tmp.(k - lo) <- reach.(k)
        done;
        let i = ref (lo - 1) and j = ref (hi - lo - 1) and k = ref (hi - 1) in
        while !j >= 0 do
          if !i >= 0 && reach.(!i) > tmp.(!j) then begin
            reach.(!k) <- reach.(!i);
            decr i
          end
          else begin
            reach.(!k) <- tmp.(!j);
            decr j
          end;
          decr k
        done
      end
    done
  end
  else begin
    let k = ref 0 in
    for i = 0 to f.m - 1 do
      if f.row_stamp.(i) = f.gen then begin
        reach.(!k) <- i;
        incr k
      end
    done
  end

(* The pivot order is chosen to avoid fill in the rebuilt eta file —
   essential, because a naive Gauss-Jordan over LP bases produces
   near-dense etas and the FTRAN / BTRAN cost explodes:

   pass 1: identity-like columns (artificials and structural singletons)
           pivot on their own row with a trivial (term-free) eta, none for
           an entry of [1];
   pass 2: repeatedly eliminate a column that is alone on some untaken
           row, pivoting on that row. No other remaining column touches the
           row, so applying the eta downstream is a pattern no-op: each
           such eta carries exactly the column's own off-pivot entries and
           no fill. By the same argument no earlier pass-2 eta touches the
           column either, only the term-free pass-1 scalings of the rows it
           meets, so its elimination reaches its own rows and no others. A
           pivot entry within [eps] of zero breaks the argument: the column
           then pivots on its largest untaken entry, on a row later columns
           may meet, and their eliminations reach whatever that eta fills.
           The unplaced columns of each untaken row are held as CSR arrays,
           in basis order, and a row that is down to one of them takes the
           last still unplaced;
   pass 3: the residual "bump" is eliminated smallest column first (the
           later basis position first among equals), picking pivot rows by
           magnitude. On the paper's case 1 a bump holds 64 columns on
           average and up to 112, of m ~ 776 rows.

   Every eta a factorisation emits owns a distinct row, so [eta_at] maps a
   row to its eta's position in the file. Eliminating a pass-2 or bump
   column applies the file to the column, but only the etas of the rows it
   reaches can fire: the scattered column queues the etas of its nonzero
   rows, and applying an eta queues the etas of the rows it makes nonzero
   that lie later in the file (an earlier one has already met a zero row).
   The queue is a min-heap of positions, so the etas fire in the order a
   pass over the whole file fires them, with the same float operations,
   and an eta whose row stays zero does nothing in either. The reached rows
   are then put in ascending order ({!sort_reach}), scanned for the eta
   and the pivot, and cleared, so [v] is all zero between columns and
   nothing else of it is read. A column costs the rows and etas it
   reaches, not [m] or the length of the file (Gilbert, Peierls, "Sparse
   partial pivoting in time proportional to arithmetic operations", SISSC
   9, 1988): on case 1 a bump column reaches ~42 rows and fires ~3 of
   ~234 etas.

   An artificial whose row a structural singleton took is a singular
   basis. *)
let factorise f ~art basis =
  let m = f.m and n = Array.length f.cidx and cidx = f.cidx and cval = f.cval in
  f.n_etas <- 0;
  let order = f.order and taken = f.taken and placed = f.placed in
  let v = f.v and eta_at = f.eta_at and rows = f.rows in
  Array.blit basis 0 order 0 m;
  Array.fill taken 0 m false;
  Array.fill placed 0 m false;
  Array.fill eta_at 0 m (-1);
  let push_factor_eta e =
    eta_at.(e.e_row) <- f.n_etas;
    push f e
  in
  let place t col row =
    taken.(row) <- true;
    placed.(t) <- true;
    basis.(row) <- col
  in
  (* Eliminate a structural column (an unplaced artificial is singular
     before any elimination) through the etas its rows reach, see above,
     and pivot it on [row_hint] when its entry there is above [eps], on its
     largest untaken entry otherwise. *)
  let reach = f.reach and stamp = f.row_stamp and heap = f.heap
  and runs = f.runs in
  let eliminate t col ~row_hint =
    f.gen <- f.gen + 1;
    let gen = f.gen in
    let nreach = ref 0 and nheap = ref 0 and nruns = ref 1 in
    runs.(0) <- 0;
    let idx = cidx.(col) and vl = cval.(col) in
    for k = 0 to Array.length idx - 1 do
      let i = idx.(k) in
      v.(i) <- vl.(k);
      stamp.(i) <- gen;
      reach.(!nreach) <- i;
      incr nreach;
      if eta_at.(i) >= 0 then begin
        heap_push heap !nheap eta_at.(i);
        incr nheap
      end
    done;
    while !nheap > 0 do
      let p = heap_pop heap !nheap in
      decr nheap;
      let e = f.etas.(p) in
      let x = v.(e.e_row) in
      if Float.abs x > eps then begin
        v.(e.e_row) <- e.e_pivot *. x;
        let eidx = e.e_idx and evl = e.e_val in
        let first = !nreach in
        for k = 0 to Array.length eidx - 1 do
          let i = eidx.(k) in
          if stamp.(i) <> gen then begin
            stamp.(i) <- gen;
            reach.(!nreach) <- i;
            incr nreach;
            if eta_at.(i) > p then begin
              heap_push heap !nheap eta_at.(i);
              incr nheap
            end
          end;
          v.(i) <- v.(i) +. (evl.(k) *. x)
        done;
        if !nreach > first then begin
          runs.(!nruns) <- first;
          incr nruns
        end
      end
    done;
    let nreach = !nreach in
    sort_reach f ~nruns:!nruns nreach;
    (* the column's nonzero rows and its largest untaken entry *)
    let cnt = ref 0 and best = ref (-1) and best_mag = ref 0.0 in
    for k = 0 to nreach - 1 do
      let i = reach.(k) in
      let mag = Float.abs v.(i) in
      if mag > eps then begin
        rows.(!cnt) <- i;
        incr cnt;
        if (not taken.(i)) && (!best < 0 || mag > !best_mag) then begin
          best := i;
          best_mag := mag
        end
      end
    done;
    let row =
      if row_hint >= 0 && Float.abs v.(row_hint) > eps then row_hint else !best
    in
    if row >= 0 then push_factor_eta (eta_of_rows ~row v rows !cnt);
    for k = 0 to nreach - 1 do
      v.(reach.(k)) <- 0.0
    done;
    if row < 0 then raise Singular;
    place t col row
  in
  for t = 0 to m - 1 do
    let col = order.(t) in
    if col >= n || Array.length cidx.(col) = 1 then begin
      let r = if col >= n then col - n else cidx.(col).(0) in
      if not taken.(r) then begin
        let a = if col >= n then art.(r) else cval.(col).(0) in
        if Float.abs (a -. 1.0) > eps then
          push_factor_eta { e_row = r; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] };
        place t col r
      end
    end
  done;
  (* CSR of the unplaced columns on each untaken row, [t] ascending *)
  let row_count = f.row_count and start = f.unplaced_start
  and unplaced = f.unplaced and cursor = f.cursor in
  Array.fill row_count 0 m 0;
  for t = 0 to m - 1 do
    if not placed.(t) then begin
      let col = order.(t) in
      if col >= n then raise Singular;
      let idx = cidx.(col) in
      for k = 0 to Array.length idx - 1 do
        let i = idx.(k) in
        if not taken.(i) then row_count.(i) <- row_count.(i) + 1
      done
    end
  done;
  start.(0) <- 0;
  for i = 0 to m - 1 do
    start.(i + 1) <- start.(i) + row_count.(i);
    cursor.(i) <- start.(i)
  done;
  for t = 0 to m - 1 do
    if not placed.(t) then begin
      let idx = cidx.(order.(t)) in
      for k = 0 to Array.length idx - 1 do
        let i = idx.(k) in
        if not taken.(i) then begin
          unplaced.(cursor.(i)) <- t;
          cursor.(i) <- cursor.(i) + 1
        end
      done
    end
  done;
  (* A row enters the FIFO when its count starts at 1 or falls to 1, and
     counts only fall, so it enters at most once. *)
  let fifo = f.fifo in
  let head = ref 0 and tail = ref 0 in
  for i = 0 to m - 1 do
    if (not taken.(i)) && row_count.(i) = 1 then begin
      fifo.(!tail) <- i;
      incr tail
    end
  done;
  while !head < !tail do
    let r = fifo.(!head) in
    incr head;
    if (not taken.(r)) && row_count.(r) = 1 then begin
      let p = ref (start.(r + 1) - 1) in
      while !p >= start.(r) && placed.(unplaced.(!p)) do decr p done;
      if !p >= start.(r) then begin
        let t = unplaced.(!p) in
        let col = order.(t) in
        eliminate t col ~row_hint:r;
        let idx = cidx.(col) in
        for k = 0 to Array.length idx - 1 do
          let i = idx.(k) in
          if not taken.(i) then begin
            row_count.(i) <- row_count.(i) - 1;
            if row_count.(i) = 1 then begin
              fifo.(!tail) <- i;
              incr tail
            end
          end
        done
      end
    end
  done;
  (* the bump, smallest column first, the later basis position first among
     equals: ascending [length * m + (m - 1 - t)], distinct keys *)
  let bump = f.fifo and nbump = ref 0 in
  for t = 0 to m - 1 do
    if not placed.(t) then begin
      heap_push bump !nbump ((Array.length cidx.(order.(t)) * m) + (m - 1 - t));
      incr nbump
    end
  done;
  for k = !nbump downto 1 do
    let t = m - 1 - (heap_pop bump k mod m) in
    eliminate t order.(t) ~row_hint:(-1)
  done;
  f.base <- f.n_etas;
  !nbump

let due f = f.n_etas - f.base > min 150 (50 + (f.m / 4))

let nnz f =
  let nnz = ref 0 in
  for t = 0 to f.n_etas - 1 do
    nnz := !nnz + 1 + Array.length f.etas.(t).e_idx
  done;
  !nnz

type memo = { f_etas : eta array; f_basis : int array }

let memo f basis =
  { f_etas = Array.sub f.etas 0 f.n_etas; f_basis = Array.copy basis }

let restore f memo basis =
  f.n_etas <- 0;
  Array.iter (push f) memo.f_etas;
  f.base <- f.n_etas;
  Array.blit memo.f_basis 0 basis 0 f.m

let clear f =
  Array.fill f.etas 0 f.used dummy_eta;
  f.n_etas <- 0;
  f.used <- 0;
  f.base <- 0
