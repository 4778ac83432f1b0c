(* Sparse revised two-phase bounded-variable simplex over IEEE doubles.

   A {!columns} store is the whole standard form, built once and never
   written afterwards: the sparse column of each structural variable with
   its static pricing norm, the same nonzeros row by row, the rhs [b], the
   costs [c] and the spans. The basis inverse is a {!Factor}: an eta file
   the phases see only through FTRAN, BTRAN, an update per pivot and a
   refactorisation once one is due.

   Pricing works row-wise. A reduced cost [c_j - y.a_j] and an entry of the
   dual pivot row [rho.a_j] are both sums over the rows where the dense
   vector ([y] or [rho = B^-T e_r]) is nonzero, so the kernel walks those
   rows, in ascending order, and adds each row's terms into its columns.
   Every column then receives its terms in the order a sweep down the
   column adds them; the only terms left out are exact zero products,
   which cannot change a sum, so the results are bit-identical to a
   column sweep. In a warm dual iteration [rho] is hypersparse (tens of
   nonzeros among hundreds of rows on the paper's case 1), so the pivot
   row and the reduced-cost update touch only the columns those rows
   reach.

   One entry point, {!solve}, solves a node of the form given only the
   columns whose bounds it changes: it loads the node's rhs and spans into
   its workspace once ({!load_node}) and adds the offsets back to its
   vertex ({!unshift}). Given a snapshot it re-solves warm from that basis,
   and a basis that proves stale falls back in the same call to the cold
   solve. A cold solve gives a row whose node rhs is negative the
   artificial [-e_i] ([w_art]), the system a translation negating that row
   holds, so it walks that translation's pivots, every value equal up to
   sign; a warm re-solve's artificials, basic only at zero, are [e_i].

   Every solve over a store runs in its [workspace] and factor, allocated
   once, with the store, so one store serves one solve at a time (a tree
   search solves one relaxation at a time). Nothing a solve leaves in them
   is read by the next: each array is written before it is read, and the
   pivot row marks the columns it touches with a generation number that
   never repeats, so a solve aborted mid-row ([Deadline_exceeded],
   [Iteration_limit], [Singular]) leaves no mark a later one could mistake
   for its own. A nonbasic structural variable rests at either end of
   [0, ub_j] ([at_ub]). Spans are [>= 0]; a zero-span column (a fixed
   variable) never enters: the crash basis takes only columns without an
   upper bound, and pricing, drive-out and the dual ratio test skip spans
   not above [eps].

   Columns [0 .. n-1] are structural, [n .. n+m-1] artificial. Artificial
   columns never re-enter the basis once they leave: phase 1 then still
   terminates at a true optimum of the restricted problem, and any feasible
   point of the original problem remains feasible with all artificials at
   zero, so the infeasibility test is unaffected.

   Primal pricing is steepest-edge-lite — Dantzig reduced costs scaled by
   static column norms ([d_j^2 / (1 + ||a_j||^2)]) — for the first
   [3*(m+n)] iterations, then Bland (smallest index), which guarantees
   termination even under degeneracy (bound flips are always
   nondegenerate: only columns of positive span enter). The dual phase
   prices by dual steepest edge, with weights it updates every pivot, and
   picks its leaving row from a list of candidate infeasible rows
   ({!dual_phase}).

   Every hot array is an unboxed [float array] and every comparison inline;
   values within [eps] of each other compare equal. *)

exception Deadline_exceeded
exception Iteration_limit
exception Singular = Factor.Singular

let eps = 1e-9

(* Scratch for the solves over one store; see the header. Row-length
   arrays come first, then column-length ones. *)
type workspace = {
  w_y : float array;  (* simplex multipliers *)
  w_rho : float array;  (* row r of B^-1 *)
  w_delta : float array;  (* summed bound-flip columns, then a residual *)
  w_alpha : float array;  (* the entering column, FTRAN'd *)
  w_x_b : float array;
  w_b : float array;  (* the node's rhs *)
  w_art : float array;  (* the sign of each row's artificial column *)
  w_dse : float array;  (* dual steepest-edge weight of each basis row *)
  w_tau : float array;  (* [B^-1 rho], for the weight update *)
  w_rows : int array;  (* nonzero rows of [y], [rho] or an FTRAN'd column *)
  w_infeas : int array;  (* the dual phase's candidate infeasible rows *)
  w_listed : bool array;  (* a row's membership of [w_infeas] *)
  w_basis : int array;
  w_d : float array;  (* reduced costs *)
  w_row_r : float array;  (* the dual pivot row, where [w_stamp = w_gen] *)
  w_cand_ratio : float array;
  w_cand_arj : float array;
  w_ubs : float array;  (* the node's spans *)
  w_stamp : int array;
  w_touched : int array;
  w_cand : int array;
  w_cand_order : int array;
  w_at_ub : bool array;
  w_pos : int array;  (* [n + nrows] *)
  w_factor : Factor.t;
  mutable w_gen : int;
}

type columns = {
  nrows : int;
  col_idx : int array array;
  col_val : float array array;
  col_weight : float array;
  row_start : int array;
  row_col : int array;
  row_val : float array;
  b : float array;
  c : float array;
  ubs : float array;
  work : workspace;
}

let workspace ~m ~n factor =
  let fm () = Array.make m 0.0 and im () = Array.make m 0 in
  let fn () = Array.make n 0.0 and in_ () = Array.make n 0 in
  {
    w_y = fm ();
    w_rho = fm ();
    w_delta = fm ();
    w_alpha = fm ();
    w_x_b = fm ();
    w_b = fm ();
    w_art = fm ();
    w_dse = fm ();
    w_tau = fm ();
    w_rows = im ();
    w_infeas = im ();
    w_listed = Array.make m false;
    w_basis = im ();
    w_d = fn ();
    w_row_r = fn ();
    w_cand_ratio = fn ();
    w_cand_arj = fn ();
    w_ubs = fn ();
    w_stamp = in_ ();
    w_touched = in_ ();
    w_cand = in_ ();
    w_cand_order = in_ ();
    w_at_ub = Array.make n false;
    w_pos = Array.make (n + m) (-1);
    w_factor = factor;
    w_gen = 0;
  }

let columns ~b ~c ~ubs cols =
  let nrows = Array.length b and n = Array.length cols in
  if Array.length c <> n then invalid_arg "Tableau.columns: c length";
  if Array.length ubs <> n then invalid_arg "Tableau.columns: ubs length";
  for i = 0 to nrows - 1 do
    if b.(i) < -.eps then invalid_arg "Tableau.columns: negative rhs"
  done;
  for j = 0 to n - 1 do
    if ubs.(j) < 0.0 then invalid_arg "Tableau.columns: negative upper bound"
  done;
  Array.iter
    (fun col ->
      Array.iteri
        (fun k (i, _) ->
          if i < 0 || i >= nrows then invalid_arg "Tableau.columns: row out of range";
          if k > 0 && i <= fst col.(k - 1) then
            invalid_arg "Tableau.columns: rows not strictly increasing")
        col)
    cols;
  let col_idx = Array.map (fun col -> Array.map fst col) cols in
  let col_val = Array.map (fun col -> Array.map snd col) cols in
  (* The transpose: visiting the columns in ascending order lists each
     row's columns ascending. *)
  let row_start = Array.make (nrows + 1) 0 in
  Array.iter
    (Array.iter (fun i -> row_start.(i + 1) <- row_start.(i + 1) + 1))
    col_idx;
  for i = 0 to nrows - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let nnz = row_start.(nrows) in
  let row_col = Array.make nnz 0 and row_val = Array.make nnz 0.0 in
  let fill = Array.sub row_start 0 nrows in
  for j = 0 to n - 1 do
    let idx = col_idx.(j) and vl = col_val.(j) in
    for k = 0 to Array.length idx - 1 do
      let p = fill.(idx.(k)) in
      row_col.(p) <- j;
      row_val.(p) <- vl.(k);
      fill.(idx.(k)) <- p + 1
    done
  done;
  {
    nrows;
    col_idx;
    col_val;
    col_weight =
      Array.map
        (fun vl -> Array.fold_left (fun acc x -> acc +. (x *. x)) 1.0 vl)
        col_val;
    row_start;
    row_col;
    row_val;
    b;
    c;
    ubs;
    work = workspace ~m:nrows ~n (Factor.create ~nrows col_idx col_val);
  }

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  mutable s_factor : Factor.memo option;
}

type result =
  | Optimal of { value : float; x : float array; snapshot : snapshot }
  | Infeasible
  | Unbounded

type state = {
  m : int;
  n : int;
  (* structural columns, shared with the column store and never written *)
  cols : columns;
  ws : workspace;
  ubs : float array;  (* upper bound per structural column, [infinity] = none *)
  art : float array;  (* artificial column [n + i] is [art.(i) * e_i] *)
  at_ub : bool array;
  basis : int array;
  pos : int array;
  x_b : float array;
  b : float array;
  factor : Factor.t;
  max_iters : int;
  deadline : float option;
  (* per-solve counters, flushed to telemetry when the solve ends *)
  mutable iters : int;
  mutable pivots : int;
  mutable phase1_pivots : int;
  mutable bland_pivots : int;
  mutable dual_pivots : int;
  mutable flips : int;
  mutable refactorisations : int;
  mutable factor_reuses : int;
  mutable btrans : int;
  mutable ftrans : int;
  mutable rho_nnz : int;
  mutable pivot_row_nnz : int;
  mutable chuzr_rows : int;
}

let clamp x = if Float.abs x <= eps then 0.0 else x
let fcmp a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b

let ftran st v =
  st.ftrans <- st.ftrans + 1;
  Factor.ftran st.factor v

let btran st y =
  st.btrans <- st.btrans + 1;
  Factor.btran st.factor y

(* [alpha <- B^-1 a_j]: column [j], structural or artificial, FTRAN'd. *)
let ftran_column st j alpha =
  Array.fill alpha 0 st.m 0.0;
  if j < st.n then begin
    let idx = st.cols.col_idx.(j) and vl = st.cols.col_val.(j) in
    for k = 0 to Array.length idx - 1 do
      alpha.(idx.(k)) <- vl.(k)
    done
  end
  else alpha.(j - st.n) <- st.art.(j - st.n);
  ftran st alpha

(* The rows where [v] is nonzero, ascending, into [st.ws.w_rows]; returns
   how many. *)
let nonzero_rows st (v : float array) =
  let rows = st.ws.w_rows in
  let cnt = ref 0 in
  for i = 0 to st.m - 1 do
    if v.(i) <> 0.0 then begin
      rows.(!cnt) <- i;
      incr cnt
    end
  done;
  !cnt

(* [d_j <- d_j - v . a_j] for every structural column [j], row by row over
   the nonzeros of [v] (see the header). With [d] holding the costs and [v]
   the multipliers this prices the reduced costs. *)
let subtract_rows st v d =
  let cols = st.cols in
  let row_start = cols.row_start and row_col = cols.row_col
  and row_val = cols.row_val in
  let rows = st.ws.w_rows in
  for k = 0 to nonzero_rows st v - 1 do
    let i = rows.(k) in
    let vi = v.(i) in
    for p = row_start.(i) to row_start.(i + 1) - 1 do
      let j = row_col.(p) in
      d.(j) <- d.(j) -. (row_val.(p) *. vi)
    done
  done

(* The dual pivot row [rho . a_j], row by row over the [nrho] nonzeros of
   [rho] that {!nonzero_rows} has just listed, into [w_row_r]. Only the
   columns those rows reach get an entry: each is stamped with a fresh
   generation and listed in [w_touched], whose length is returned; every
   other column's entry is zero. *)
let pivot_row st rho nrho =
  let cols = st.cols and ws = st.ws in
  let row_start = cols.row_start and row_col = cols.row_col
  and row_val = cols.row_val in
  let rows = ws.w_rows and row_r = ws.w_row_r and stamp = ws.w_stamp
  and touched = ws.w_touched in
  ws.w_gen <- ws.w_gen + 1;
  let gen = ws.w_gen in
  st.rho_nnz <- st.rho_nnz + nrho;
  let nt = ref 0 in
  for k = 0 to nrho - 1 do
    let i = rows.(k) in
    let ri = rho.(i) in
    for p = row_start.(i) to row_start.(i + 1) - 1 do
      let j = row_col.(p) in
      if stamp.(j) <> gen then begin
        stamp.(j) <- gen;
        row_r.(j) <- 0.0;
        touched.(!nt) <- j;
        incr nt
      end;
      row_r.(j) <- row_r.(j) +. (row_val.(p) *. ri)
    done
  done;
  !nt

(* Sort [a.(0 .. len-1)] in place by [cmp], which must be a strict total
   order on the entries: the result is then the one any sort gives. *)
let sort_prefix cmp (a : int array) len =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && cmp a.(l + 1) a.(l) > 0 then l + 1 else l in
      if cmp a.(c) a.(i) > 0 then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

(* [x_B <- x_B - step * v] on the rows where [|v_i| > eps], which it lists
   ascending in [w_rows]; returns how many. *)
let step_x_b st v step =
  let cnt = ref 0 in
  for i = 0 to st.m - 1 do
    let a = v.(i) in
    if Float.abs a > eps then begin
      st.ws.w_rows.(!cnt) <- i;
      incr cnt;
      st.x_b.(i) <- clamp (st.x_b.(i) -. (step *. a))
    end
  done;
  !cnt

(* Column [col] takes row [row] of the basis, its value there [step] past
   the bound it rested at; a structural leaving variable rests at its upper
   bound if [to_ub]. *)
let swap_in st ~row ~col ~step ~to_ub =
  let leaving = st.basis.(row) in
  let enter_val = if st.at_ub.(col) then st.ubs.(col) else 0.0 in
  st.x_b.(row) <- clamp (enter_val +. step);
  st.at_ub.(col) <- false;
  if leaving < st.n then st.at_ub.(leaving) <- to_ub;
  st.pos.(leaving) <- -1;
  st.basis.(row) <- col;
  st.pos.(col) <- row

(* The pivot of the primal phases and {!drive_out_artificials}: one sweep over [alpha] moves x_B along
   the step and collects the rows of the eta; the pivot row's entry, which
   must be above [eps], is then overwritten with the entering variable's
   value. *)
let pivot st ~row ~col ~t ~dir ~to_ub alpha =
  let step = t *. dir in
  Factor.update st.factor ~row alpha st.ws.w_rows (step_x_b st alpha step);
  swap_in st ~row ~col ~step ~to_ub

(* [pos] from [basis]: the row of each basic column, [-1] for every other
   one. [false] if a column is out of range or basic twice, as only a
   corrupt snapshot's can be. *)
let index_basis pos basis =
  Array.fill pos 0 (Array.length pos) (-1);
  let sane = ref true in
  for i = 0 to Array.length basis - 1 do
    let j = basis.(i) in
    if j < 0 || j >= Array.length pos || pos.(j) >= 0 then sane := false
    else pos.(j) <- i
  done;
  !sane

(* Recompute x_B = B^-1 (b - N_U u_U) under a rebuilt factor. *)
let load_x_b st =
  ignore (index_basis st.pos st.basis);
  Array.blit st.b 0 st.x_b 0 st.m;
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 && st.at_ub.(j) then begin
      let u = st.ubs.(j) in
      let idx = st.cols.col_idx.(j) and vl = st.cols.col_val.(j) in
      for k = 0 to Array.length idx - 1 do
        st.x_b.(idx.(k)) <- st.x_b.(idx.(k)) -. (vl.(k) *. u)
      done
    end
  done;
  ftran st st.x_b;
  for i = 0 to st.m - 1 do
    st.x_b.(i) <- clamp st.x_b.(i)
  done

let refactor st =
  let rt0 = Telemetry.Clock.now_s () in
  st.refactorisations <- st.refactorisations + 1;
  let bump = Factor.factorise st.factor ~art:st.art st.basis in
  load_x_b st;
  Telemetry.observe "lp.simplex.refactor_s" (Telemetry.Clock.now_s () -. rt0);
  if Telemetry.enabled () then begin
    Telemetry.observe "lp.simplex.factor_nnz" (float_of_int (Factor.nnz st.factor));
    Telemetry.observe "lp.simplex.bump_cols" (float_of_int bump)
  end

(* The reduced costs of the structural columns into [w_d]: phase 1 prices
   the sum of artificials, phase 2 the structural costs [c]. *)
let reduced_costs st ~phase2 =
  let c = st.cols.c and y = st.ws.w_y and d = st.ws.w_d in
  for i = 0 to st.m - 1 do
    let bv = st.basis.(i) in
    y.(i) <-
      (if phase2 then if bv < st.n then c.(bv) else 0.0
       else if bv >= st.n then 1.0
       else 0.0)
  done;
  btran st y;
  if phase2 then Array.blit c 0 d 0 st.n else Array.fill d 0 st.n 0.0;
  subtract_rows st y d

(* Entering column among the structural nonbasics: a variable at its lower
   bound enters on a negative reduced cost (moving up), one at its upper
   bound on a positive reduced cost (moving down). Steepest-edge-lite or
   Bland. Phase 1 prices the sum of artificials, phase 2 the structural
   costs [c]; artificials are never priced back in. Returns the column, or
   [-1] at optimality, leaving its FTRAN'd tableau column in [alpha]; it
   moves down from its upper bound, up otherwise. *)
let entering st ~phase2 ~bland alpha =
  let d = st.ws.w_d in
  reduced_costs st ~phase2;
  (* Zero-span columns (fixed variables, in the form or by a node's bound
     change) can neither step nor flip: entering one would loop on
     zero-length bound flips, so they are never eligible. *)
  let eligible j =
    st.pos.(j) < 0
    && st.ubs.(j) > eps
    && if st.at_ub.(j) then d.(j) > eps else d.(j) < -.eps
  in
  let chosen =
    if bland then begin
      let j = ref 0 in
      while !j < st.n && not (eligible !j) do incr j done;
      if !j < st.n then !j else -1
    end
    else begin
      let best = ref (-1) and best_score = ref 0.0 in
      for j = 0 to st.n - 1 do
        if eligible j then begin
          let score = d.(j) *. d.(j) /. st.cols.col_weight.(j) in
          if score > !best_score then begin
            best := j;
            best_score := score
          end
        end
      done;
      !best
    end
  in
  if chosen >= 0 then ftran_column st chosen alpha;
  chosen

type step =
  | Flip
  | Leave of { row : int; t : float; to_ub : bool }
  | Unbounded_dir

(* Ratio test for the entering column moving by [t >= 0] in direction
   [dir]: basic variables must stay within [0, ub], and the entering
   variable within its own [span]. Bland tie-break on basis variable index.
   In phase 2, a basic artificial (redundant row, value 0) also leaves on a
   ratio-0 degenerate step whenever its entry is nonzero in the blocking
   direction — preferring artificials on ratio ties keeps Bland's
   termination argument, as an artificial that leaves never re-enters. *)
let ratio_test st alpha ~dir ~span ~phase2 =
  let best = ref (-1) in
  let best_ratio = ref 0.0 in
  let best_to_ub = ref false in
  let best_art = ref false in
  for i = 0 to st.m - 1 do
    let aeff = dir *. alpha.(i) in
    if Float.abs aeff > eps then begin
      let bv = st.basis.(i) in
      let art = bv >= st.n in
      let x = st.x_b.(i) in
      (* a block at 0 (moving down), at a finite upper bound (moving up),
         or the degenerate step of a basic artificial *)
      let u = if aeff > eps || art then infinity else st.ubs.(bv) in
      if aeff > eps || u < infinity || (phase2 && art && Float.abs x <= eps)
      then begin
        let to_ub = aeff <= eps && u < infinity in
        let ratio =
          if aeff > eps then x /. aeff else if to_ub then (u -. x) /. -.aeff else 0.0
        in
        let better =
          !best < 0
          || fcmp ratio !best_ratio < 0
          || (fcmp ratio !best_ratio = 0
              && ((art && not !best_art)
                  || (art = !best_art && bv < st.basis.(!best))))
        in
        if better then begin
          best := i;
          best_ratio := ratio;
          best_to_ub := to_ub;
          best_art := art
        end
      end
    end
  done;
  if !best < 0 then if span < infinity then Flip else Unbounded_dir
  else if span < infinity && fcmp span !best_ratio <= 0 then Flip
  else Leave { row = !best; t = !best_ratio; to_ub = !best_to_ub }

(* Start one pivot iteration: check the deadline (the clock is read every
   16 iterations only) and refactorise once one is due. *)
let begin_iteration st =
  (match st.deadline with
   | Some t when st.iters land 15 = 0 && Telemetry.Clock.now_s () > t ->
     Telemetry.count "lp.simplex.deadline_aborts";
     raise Deadline_exceeded
   | Some _ | None -> ());
  st.iters <- st.iters + 1;
  if Factor.due st.factor then refactor st

let run_phase st ~phase2 =
  let alpha = st.ws.w_alpha in
  let switch = 3 * (st.m + st.n) in
  let rec loop () =
    if st.iters > st.max_iters then raise Iteration_limit;
    begin_iteration st;
    let bland = st.iters > switch in
    let col = entering st ~phase2 ~bland alpha in
    if col < 0 then `Optimal
    else begin
      let dir = if st.at_ub.(col) then -1.0 else 1.0 in
      let span = st.ubs.(col) in
      match ratio_test st alpha ~dir ~span ~phase2 with
      | Unbounded_dir -> `Unbounded
      | Flip ->
        ignore (step_x_b st alpha (span *. dir));
        st.at_ub.(col) <- not st.at_ub.(col);
        st.flips <- st.flips + 1;
        loop ()
      | Leave { row; t; to_ub } ->
        pivot st ~row ~col ~t ~dir ~to_ub alpha;
        st.pivots <- st.pivots + 1;
        if not phase2 then st.phase1_pivots <- st.phase1_pivots + 1;
        if bland then st.bland_pivots <- st.bland_pivots + 1;
        loop ()
    end
  in
  loop ()

(* After phase 1, pivot remaining basic artificials out wherever some
   structural column with a nonzero span has a nonzero entry in their row
   (a degenerate entry at the entering variable's current value); a
   zero-span column never enters, here as in pricing. Rows with no such
   entry are redundant and are handled by the phase-2 ratio test
   instead. The row of the tableau is priced like reduced costs, from zero:
   it comes out negated, which its magnitude test ignores. *)
let drive_out_artificials st =
  let rho = st.ws.w_rho and alpha = st.ws.w_alpha and row = st.ws.w_d in
  for i = 0 to st.m - 1 do
    if st.basis.(i) >= st.n then begin
      Array.fill rho 0 st.m 0.0;
      rho.(i) <- 1.0;
      btran st rho;
      Array.fill row 0 st.n 0.0;
      subtract_rows st rho row;
      let col = ref 0 in
      while
        !col < st.n
        && not (st.pos.(!col) < 0 && st.ubs.(!col) > eps && Float.abs row.(!col) > eps)
      do
        incr col
      done;
      let col = !col in
      if col < st.n then begin
        ftran_column st col alpha;
        if Float.abs alpha.(i) > eps then begin
          pivot st ~row:i ~col ~t:0.0 ~dir:1.0 ~to_ub:false alpha;
          st.pivots <- st.pivots + 1
        end
      end
    end
  done

(* Dual simplex: restore primal feasibility of an inherited basis after the
   rhs / bound changes of a branch-and-bound child node, without giving up
   the parent's dual feasibility (the reduced-cost sign pattern depends only
   on the basis and the costs, neither of which branching touches).

   Dual steepest-edge pricing picks the leaving row: the basic variable
   maximising viol^2 / w_i, where w_i estimates ||e_i^T B^-1||^2, the
   squared norm of row i of the basis inverse (Forrest and Goldfarb,
   "Steepest-edge simplex algorithms for linear programming", Math. Prog.
   57, 1992). Every weight starts at 1 when the phase starts (a snapshot
   carries none) and learns from each dual pivot: the pivot row's weight
   is recomputed exactly as ||rho||^2 from the BTRAN the ratio test needs
   anyway, one more FTRAN gives tau = B^-1 rho, and every row i the
   entering column alpha reaches is updated by
     w_i <- max(w_i - 2 (alpha_i/alpha_r) tau_i + (alpha_i/alpha_r)^2 w_r,
                (alpha_i/alpha_r)^2)
   and the pivot row's by w_r <- w_r / alpha_r^2. A refactorisation keeps
   every row's basic column, so the weights stay valid across it.

   Every per-pivot row sweep costs only the rows it touches (Hall and
   McKinnon, "Hyper-sparsity in the revised simplex method and how to
   exploit it", Comput. Optim. Appl. 32, 2005), with the float operations
   and their order of a full sweep. The leaving row is picked from a list
   of candidate infeasible rows ([w_infeas]): every row is listed when the
   phase starts and after each refactorisation (which rewrites x_B), every
   row a bound-flip step or a pivot moves joins it, and a row the choice
   finds feasible drops out. Only a listed row can be infeasible, and
   among equal scores the lowest row wins, as in an ascending sweep.
   ||rho||^2 sums the nonzero rows of rho only, ascending (every summand
   left out is +0), and one sweep over alpha updates the weights, steps
   x_B and collects the rows of the eta.

   The ratio test runs over the eta file: one BTRAN for the pivot row of
   B^-1, then the pivot row alpha_r over the rows that row of B^-1 reaches
   ({!pivot_row}), collecting every sign-eligible nonbasic structural entry
   with its ratio |d_j| / |alpha_rj|. The ratio test is the bound-flipping
   ("long step") variant described at the walk below; all flips of one
   iteration are applied with a single accumulated FTRAN, so a flip-heavy
   repair costs one pricing round instead of one per flip (the naive
   variant hit ~800 full reprices per warm solve on the paper's case 1).

   The reduced costs [d] are priced from a fresh BTRAN of the simplex
   multipliers only at the first iteration and after each refactorisation.
   Every dual pivot then updates them from the pivot row it already built:
   d_j -= theta_D * alpha_rj with theta_D = d_q / alpha_rq, so the entering
   column's becomes 0 and the leaving column's -theta_D (Koberstein, "The
   Dual Simplex Method, Techniques for a Fast and Stable Implementation",
   PhD thesis, Paderborn 2005). Only the columns the pivot row touched
   change: elsewhere alpha_rj is 0. Flips leave [d] alone: it depends on
   the basis only. Updates accumulate rounding for at most one
   refactorisation interval, and whatever dual infeasibility that leaves is
   polished off by the primal phase that follows, which prices afresh
   every iteration.

   Artificial columns are pinned to [0, 0] here: the parent solve left them
   at zero, and a nonzero artificial under the child's rhs is precisely an
   equality-row violation the dual steps must repair. Artificials are never
   priced back in; if no eligible entering column exists the row is a valid
   infeasibility certificate, as trustworthy as the primal phase-1 test. *)
let dual_phase st =
  let ws = st.ws in
  let rho = ws.w_rho and delta = ws.w_delta
  and alpha = ws.w_alpha and d = ws.w_d and row_r = ws.w_row_r
  and w = ws.w_dse and tau = ws.w_tau
  and touched = ws.w_touched and cand = ws.w_cand
  and cand_ratio = ws.w_cand_ratio and cand_arj = ws.w_cand_arj
  and order = ws.w_cand_order and rows = ws.w_rows
  and infeas = ws.w_infeas and listed = ws.w_listed in
  (* [d] holds the reduced costs of the nonbasic columns with a nonzero
     span (fixed columns never enter, so theirs are never read);
     [priced_at] is the refactorisation count they were last priced under,
     [-1] for never *)
  let priced_at = ref (-1) in
  let price () =
    reduced_costs st ~phase2:true;
    priced_at := st.refactorisations
  in
  (* [infeas.(0 .. ninf-1)] lists every infeasible row, and maybe feasible
     ones, each once ([listed]). Seeding lists every row, and the next
     choice drops the feasible ones; [seeded_at] is the refactorisation
     count x_B was last seeded under, like [priced_at]. *)
  let ninf = ref 0 and seeded_at = ref (-1) in
  let seed () =
    for i = 0 to st.m - 1 do
      infeas.(i) <- i
    done;
    Array.fill listed 0 st.m true;
    ninf := st.m;
    seeded_at := st.refactorisations
  in
  let join i =
    if not listed.(i) then begin
      listed.(i) <- true;
      infeas.(!ninf) <- i;
      incr ninf
    end
  in
  (* ratio order: by ratio, then the larger |alpha_rj|, then the column *)
  let by_ratio a b =
    let cr = Float.compare cand_ratio.(a) cand_ratio.(b) in
    if cr <> 0 then cr
    else
      let cm = Float.compare (Float.abs cand_arj.(b)) (Float.abs cand_arj.(a)) in
      if cm <> 0 then cm else compare cand.(a) cand.(b)
  in
  Array.fill w 0 st.m 1.0;
  let rec loop () =
    if st.iters > st.max_iters then `Cycled
    else begin
      begin_iteration st;
      if !seeded_at <> st.refactorisations then seed ();
      (* Steepest-edge pricing of the listed rows, dropping feasible ones. *)
      st.chuzr_rows <- st.chuzr_rows + !ninf;
      let row = ref (-1) and score = ref 0.0 and k = ref 0 in
      while !k < !ninf do
        let i = infeas.(!k) in
        let bv = st.basis.(i) in
        let hi = if bv < st.n then st.ubs.(bv) else 0.0 in
        let x = st.x_b.(i) in
        let viol =
          if x < -.eps then -.x else if x > hi +. eps then x -. hi else 0.0
        in
        if viol > 0.0 then begin
          let s = viol *. viol /. w.(i) in
          if s > !score || (s = !score && i < !row) then begin
            row := i;
            score := s
          end;
          incr k
        end
        else begin
          listed.(i) <- false;
          decr ninf;
          infeas.(!k) <- infeas.(!ninf)
        end
      done;
      if !row < 0 then `Primal_feasible
      else begin
        let r = !row in
        let above = not (st.x_b.(r) < -.eps) in
        let leaving = st.basis.(r) in
        if !priced_at <> st.refactorisations then price ();
        Array.fill rho 0 st.m 0.0;
        rho.(r) <- 1.0;
        btran st rho;
        (* Collect every sign-eligible nonbasic structural column with its
           dual ratio |d_j| / |alpha_rj|; an untouched column's entry is
           zero, so it is never eligible. *)
        let nrho = nonzero_rows st rho in
        let ntouched = pivot_row st rho nrho in
        (* the pivot row's weight after the pivot, before the flips below
           reuse [rows]; see above *)
        let w_r = ref 0.0 in
        for k = 0 to nrho - 1 do
          let i = rows.(k) in
          w_r := !w_r +. (rho.(i) *. rho.(i))
        done;
        let w_r = !w_r in
        let ncand = ref 0 in
        for k = 0 to ntouched - 1 do
          let j = touched.(k) in
          if st.pos.(j) < 0 && st.ubs.(j) > eps then begin
            let arj = row_r.(j) in
            if arj <> 0.0 then st.pivot_row_nnz <- st.pivot_row_nnz + 1;
            let eligible =
              if above then
                if st.at_ub.(j) then arj < -.eps else arj > eps
              else if st.at_ub.(j) then arj > eps
              else arj < -.eps
            in
            if eligible then begin
              cand.(!ncand) <- j;
              cand_ratio.(!ncand) <- Float.abs d.(j) /. Float.abs arj;
              cand_arj.(!ncand) <- arj;
              incr ncand
            end
          end
        done;
        if !ncand = 0 then `Dual_unbounded
        else begin
          (* Bound-flipping ratio test: walk the candidates in ratio order.
             Passing a boxed candidate's breakpoint flips it to its other
             bound (its reduced cost changes sign there, which is only dual
             feasible at the opposite bound) and reduces the violation slope
             by span * |alpha_rj|; the candidate where the slope would hit
             zero becomes the pivot. Exhausting all breakpoints with slope
             remaining is dual unboundedness, i.e. primal infeasibility. *)
          for k = 0 to !ncand - 1 do
            order.(k) <- k
          done;
          sort_prefix by_ratio order !ncand;
          let target =
            if above && leaving < st.n then st.ubs.(leaving) else 0.0
          in
          let viol = ref (Float.abs (st.x_b.(r) -. target)) in
          let nflip = ref 0 in
          let enter = ref (-1) in
          let k = ref 0 in
          while !enter < 0 && !k < !ncand do
            let ci = order.(!k) in
            let j = cand.(ci) in
            let drop = st.ubs.(j) *. Float.abs cand_arj.(ci) in
            if drop < !viol -. eps then begin
              (* flip past this breakpoint, keep walking *)
              order.(!nflip) <- ci;
              incr nflip;
              viol := !viol -. drop
            end
            else enter := j;
            incr k
          done;
          if !enter < 0 then `Dual_unbounded
          else begin
            (* Apply the accumulated flips with one FTRAN: the raw flipped
               columns sum into [delta] and x_B -= B^-1 delta. Every row
               that moves joins the list. *)
            if !nflip > 0 then begin
              Array.fill delta 0 st.m 0.0;
              for f = 0 to !nflip - 1 do
                let j = cand.(order.(f)) in
                let u = st.ubs.(j) in
                let fstep = if st.at_ub.(j) then -.u else u in
                let idx = st.cols.col_idx.(j) and vl = st.cols.col_val.(j) in
                for t = 0 to Array.length idx - 1 do
                  delta.(idx.(t)) <- delta.(idx.(t)) +. (fstep *. vl.(t))
                done;
                st.at_ub.(j) <- not st.at_ub.(j);
                st.flips <- st.flips + 1
              done;
              ftran st delta;
              for k = 0 to step_x_b st delta 1.0 - 1 do
                join rows.(k)
              done
            end;
            let j = !enter in
            ftran_column st j alpha;
            let arj = alpha.(r) in
            if Float.abs arj <= eps then `Numerical
            else begin
              let step = (st.x_b.(r) -. target) /. arj in
              (* the pricing row (from BTRAN of e_r) and the FTRAN'd column
                 must agree on the step direction, and after the flips the
                 step must fit the entering span; drift on either means the
                 eta file has gone numerically stale *)
              let dir_ok =
                if st.at_ub.(j) then step <= eps else step >= -.eps
              in
              if not dir_ok then `Numerical
              else if
                Float.abs step > st.ubs.(j) +. (1e-7 *. Float.max 1.0 st.ubs.(j))
              then `Numerical
              else begin
                let theta = d.(j) /. row_r.(j) in
                for k = 0 to ntouched - 1 do
                  let t = touched.(k) in
                  if st.pos.(t) < 0 && st.ubs.(t) > eps then
                    d.(t) <- d.(t) -. (theta *. row_r.(t))
                done;
                d.(j) <- 0.0;
                if leaving < st.n then d.(leaving) <- -.theta;
                Array.blit rho 0 tau 0 st.m;
                ftran st tau;
                (* One sweep over alpha: the weights of the basis after the
                   pivot (see above), x_B along the step and the rows of the
                   eta, each moved row joining the list (the pivot row
                   among them, as |alpha_r| > eps). *)
                let cnt = ref 0 in
                for i = 0 to st.m - 1 do
                  let a = alpha.(i) in
                  if a <> 0.0 then begin
                    if i <> r then begin
                      let ratio = a /. arj in
                      let r2 = ratio *. ratio in
                      let wi = w.(i) -. (2.0 *. ratio *. tau.(i)) +. (r2 *. w_r) in
                      w.(i) <- (if wi > r2 then wi else r2)
                    end;
                    if Float.abs a > eps then begin
                      rows.(!cnt) <- i;
                      incr cnt;
                      st.x_b.(i) <- clamp (st.x_b.(i) -. (step *. a));
                      join i
                    end
                  end
                done;
                w.(r) <- w_r /. (arj *. arj);
                Factor.update st.factor ~row:r alpha rows !cnt;
                swap_in st ~row:r ~col:j ~step ~to_ub:above;
                st.dual_pivots <- st.dual_pivots + 1;
                loop ()
              end
            end
          end
        end
      end
    end
  in
  loop ()

(* A solve's state over the workspace of [cols], under the node's rhs and
   spans that {!load_node} wrote there. The caller fills [art], [at_ub],
   [basis] and [pos] (the workspace's own arrays) before use. *)
let make_state ~max_iters ~deadline cols =
  let ws = cols.work in
  {
    m = cols.nrows;
    n = Array.length cols.col_idx;
    cols;
    ws;
    ubs = ws.w_ubs;
    art = ws.w_art;
    at_ub = ws.w_at_ub;
    basis = ws.w_basis;
    pos = ws.w_pos;
    x_b = ws.w_x_b;
    b = ws.w_b;
    factor = ws.w_factor;
    max_iters;
    deadline;
    iters = 0;
    pivots = 0;
    phase1_pivots = 0;
    bland_pivots = 0;
    dual_pivots = 0;
    flips = 0;
    refactorisations = 0;
    factor_reuses = 0;
    btrans = 0;
    ftrans = 0;
    rho_nnz = 0;
    pivot_row_nnz = 0;
    chuzr_rows = 0;
  }

(* End a solve: empty the factor, so that it keeps no eta alive, and flush
   the counters. *)
let finish st ~warm =
  Factor.clear st.factor;
  Telemetry.count (if warm then "lp.simplex.warm_solves" else "lp.simplex.solves");
  Telemetry.count ~by:st.pivots "lp.simplex.pivots";
  Telemetry.count ~by:st.phase1_pivots "lp.simplex.phase1_pivots";
  if warm then begin
    Telemetry.count ~by:st.dual_pivots "lp.simplex.dual_pivots";
    Telemetry.count ~by:st.rho_nnz "lp.simplex.rho_nnz";
    Telemetry.count ~by:st.pivot_row_nnz "lp.simplex.pivot_row_nnz";
    Telemetry.count ~by:st.chuzr_rows "lp.simplex.chuzr_rows"
  end;
  Telemetry.count ~by:st.bland_pivots "lp.simplex.bland_pivots";
  Telemetry.count ~by:st.flips "lp.simplex.bound_flips";
  Telemetry.count ~by:st.refactorisations "lp.simplex.refactorisations";
  Telemetry.count ~by:st.factor_reuses "lp.simplex.factor_reuses";
  Telemetry.count ~by:st.btrans "lp.simplex.btrans";
  Telemetry.count ~by:st.ftrans "lp.simplex.ftrans"

(* The current vertex: nonbasic columns at their resting bound, basic ones
   at [x_b], and its cost. *)
let vertex st =
  let c = st.cols.c in
  let x = Array.make st.n 0.0 in
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 && st.at_ub.(j) then x.(j) <- st.ubs.(j)
  done;
  for i = 0 to st.m - 1 do
    if st.basis.(i) < st.n then x.(st.basis.(i)) <- st.x_b.(i)
  done;
  let value = ref 0.0 in
  for j = 0 to st.n - 1 do
    value := !value +. (c.(j) *. x.(j))
  done;
  (!value, x)

(* Factorise a warm solve's starting basis, the snapshot's: the first solve
   from a snapshot refactorises and memoises the factor in it, and every
   later one restores it and recomputes only x_B, where [b], [ubs] and
   [at_ub] enter. *)
let factor_from st snapshot =
  match snapshot.s_factor with
  | Some memo ->
    st.factor_reuses <- st.factor_reuses + 1;
    Factor.restore st.factor memo st.basis;
    load_x_b st
  | None ->
    refactor st;
    snapshot.s_factor <- Some (Factor.memo st.factor st.basis)

(* Accuracy cross-check of a warm solve's final vertex [x]: the basic
   values lie within their bounds and [A x = b] holds. *)
let accurate st x =
  let tol = 1e-7 in
  let ok = ref true in
  for i = 0 to st.m - 1 do
    let bv = st.basis.(i) in
    if bv < st.n then begin
      if st.x_b.(i) < -.tol then ok := false;
      if st.x_b.(i) -. st.ubs.(bv) > tol then ok := false
    end
    else if Float.abs st.x_b.(i) > tol then ok := false
  done;
  let resid = st.ws.w_delta in
  Array.blit st.b 0 resid 0 st.m;
  for j = 0 to st.n - 1 do
    let xj = x.(j) in
    if Float.abs xj > 0.0 then begin
      let idx = st.cols.col_idx.(j) and vl = st.cols.col_val.(j) in
      for k = 0 to Array.length idx - 1 do
        resid.(idx.(k)) <- resid.(idx.(k)) -. (vl.(k) *. xj)
      done
    end
  done;
  let scale = ref 1.0 in
  for i = 0 to st.m - 1 do
    scale := Float.max !scale (Float.abs st.b.(i))
  done;
  for i = 0 to st.m - 1 do
    if Float.abs resid.(i) > 1e-6 *. !scale then ok := false
  done;
  !ok

(* A solve's node into the workspace: the form's spans and rhs, then each
   change [(j, lo, span)] in column order, where span [j] becomes [span]
   (at least 0) and [lo] times column [j] leaves the rhs. Returns [false]
   on a negative span: the node fixed a variable to an impossible range,
   so it is infeasible before any pivoting. *)
let load_node cols changes =
  let ws = cols.work and n = Array.length cols.col_idx in
  Array.blit cols.ubs 0 ws.w_ubs 0 n;
  Array.blit cols.b 0 ws.w_b 0 cols.nrows;
  let rec apply prev = function
    | [] -> true
    | (j, lo, span) :: rest ->
      if j <= prev || j >= n then
        invalid_arg "Tableau: changes not ascending";
      ws.w_ubs.(j) <- Float.max span 0.0;
      if lo <> 0.0 then begin
        let idx = cols.col_idx.(j) and vl = cols.col_val.(j) in
        for k = 0 to Array.length idx - 1 do
          ws.w_b.(idx.(k)) <- ws.w_b.(idx.(k)) -. (vl.(k) *. lo)
        done
      end;
      (not (span < -.eps)) && apply j rest
  in
  apply (-1) changes

(* A node's vertex [x] and [value] back in the form's columns: each changed
   column moves up by its offset, and the cost of the offsets, summed from
   0 in column order (a zero offset adds a zero), joins the value. *)
let unshift cols changes value x =
  let rec add_back cost = function
    | [] -> value +. cost
    | (j, lo, _) :: rest ->
      x.(j) <- x.(j) +. lo;
      add_back (cost +. (cols.c.(j) *. lo)) rest
  in
  add_back 0.0 changes

(* A node's optimum [vertex] in the form's columns, with its final basis. *)
let optimum st changes (value, x) =
  let snapshot =
    { s_basis = Array.copy st.basis; s_at_ub = Array.copy st.at_ub; s_factor = None }
  in
  Optimal { value = unshift st.cols changes value x; x; snapshot }

(* A snapshot's basis into the workspace, its artificials [e_i] (basic
   only at zero) and the resting bounds of its nonbasic columns of finite
   span. [false] on a corrupt snapshot. *)
let load_basis cols snapshot =
  let ws = cols.work and m = cols.nrows and n = Array.length cols.col_idx in
  Array.fill ws.w_art 0 m 1.0;
  Array.blit snapshot.s_basis 0 ws.w_basis 0 m;
  Array.blit snapshot.s_at_ub 0 ws.w_at_ub 0 n;
  let sane = index_basis ws.w_pos ws.w_basis in
  for j = 0 to n - 1 do
    if ws.w_at_ub.(j) && (ws.w_pos.(j) >= 0 || ws.w_ubs.(j) = infinity) then
      ws.w_at_ub.(j) <- false
  done;
  sane

(* A warm re-solve from the loaded snapshot: dual repair, then primal
   phase-2 pivots to polish off any residual dual infeasibility, then an
   accuracy check of the vertex. [None] when the basis proves stale. *)
let warm_phases snapshot changes st =
  try
    factor_from st snapshot;
    match dual_phase st with
    | `Cycled | `Numerical -> None
    | `Dual_unbounded -> Some Infeasible
    | `Primal_feasible -> (
      match run_phase st ~phase2:true with
      | `Unbounded -> Some Unbounded
      | `Optimal ->
        let ((_, x) as v) = vertex st in
        if accurate st x then Some (optimum st changes v) else None)
  with Singular | Iteration_limit -> None

(* A cold two-phase solve of the loaded node from the crash basis. *)
let cold_phases changes st =
  let m = st.m and n = st.n and cols = st.cols in
  Array.fill st.at_ub 0 n false;
  (* A row whose node rhs is negative gets the artificial [-e_i] (see the
     header); every artificial starts at [|b_i|]. *)
  for i = 0 to m - 1 do
    st.art.(i) <- (if st.b.(i) < 0.0 then -1.0 else 1.0);
    st.basis.(i) <- n + i;
    st.x_b.(i) <- clamp (st.art.(i) *. st.b.(i))
  done;
  (* Crash basis: cover each row with a structural singleton column
     without an upper bound (a slack, ...) whose entry has its
     artificial's sign, where one exists — the basis stays diagonal, so
     x_B = b (rescaled) stays feasible — and only the remaining rows get
     artificials for phase 1 to clear. *)
  for j = 0 to n - 1 do
    if Array.length cols.col_idx.(j) = 1 then begin
      let i = cols.col_idx.(j).(0) in
      if
        st.basis.(i) >= n
        && st.art.(i) *. cols.col_val.(j).(0) > eps
        && st.ubs.(j) = infinity
      then st.basis.(i) <- j
    end
  done;
  ignore (index_basis st.pos st.basis);
  (* pass 1 of the factorisation: one scaling eta per row whose basic
     column is not [e_i], in row order *)
  ignore (Factor.factorise st.factor ~art:st.art st.basis);
  for i = 0 to m - 1 do
    if st.basis.(i) < n then begin
      let a = st.art.(i) *. cols.col_val.(st.basis.(i)).(0) in
      if fcmp a 1.0 <> 0 then st.x_b.(i) <- clamp (st.x_b.(i) /. a)
    end
  done;
  (* Phase 1 minimises the sum of artificials, phase 2 the real costs. A sum
     of artificials is bounded below, so phase 1 unbounded is numerical. *)
  match run_phase st ~phase2:false with
  | `Unbounded -> raise Singular
  | `Optimal ->
    let infeas = ref 0.0 in
    for i = 0 to m - 1 do
      if st.basis.(i) >= n then infeas := !infeas +. st.x_b.(i)
    done;
    if !infeas > eps then Infeasible
    else begin
      drive_out_artificials st;
      match run_phase st ~phase2:true with
      | `Unbounded -> Unbounded
      | `Optimal -> optimum st changes (vertex st)
    end

let solve ?(max_iters = 50_000) ?deadline ?snapshot ?(changes = []) cols =
  let m = cols.nrows and n = Array.length cols.col_idx in
  (match snapshot with
   | Some s when Array.length s.s_basis <> m || Array.length s.s_at_ub <> n ->
     invalid_arg "Tableau.solve: snapshot shape"
   | Some _ | None -> ());
  (* one attempt at the loaded node; [finish] flushes its counters *)
  let run ~warm ~max_iters phases =
    let st = make_state ~max_iters ~deadline cols in
    Fun.protect ~finally:(fun () -> finish st ~warm) (fun () -> phases st)
  in
  if not (load_node cols changes) then begin
    (* infeasible before any pivot: a warm start, if any, served *)
    if Option.is_some snapshot then Telemetry.count "lp.bb.warm_hits";
    Infeasible
  end
  else
    (* A warm repair still going after a quarter of the pivots a cold solve
       would need is degenerate-stalling: its budget is capped, and a stale
       basis falls back to the cold solve of the node already loaded. *)
    let warm =
      Option.bind snapshot (fun snapshot ->
          let r =
            if load_basis cols snapshot then
              run ~warm:true
                ~max_iters:(min max_iters (max 100 (m / 4)))
                (warm_phases snapshot changes)
            else None
          in
          Telemetry.count
            (if Option.is_some r then "lp.bb.warm_hits" else "lp.bb.warm_fallbacks");
          r)
    in
    match warm with
    | Some r -> r
    | None -> run ~warm:false ~max_iters (cold_phases changes)
