(* Sparse revised two-phase bounded-variable simplex over IEEE doubles.

   The constraint matrix is stored column-wise in a {!columns} store (the
   sparse column of each structural variable and its static pricing norm),
   built once per standard form and shared read-only by every solve over
   that form; the basis inverse is a
   product-form eta file that is rebuilt from scratch (refactorised) after a
   bounded number of pivots, which both bounds the FTRAN / BTRAN cost and
   drains accumulated roundoff.

   Structural variables range over [0, ub_j] (ub_j optional); a nonbasic
   variable rests at either bound ([at_ub]) and upper bounds are enforced by
   the ratio test — including bound flips that move a variable across its
   whole span without a basis change — instead of by explicit rows.

   Columns [0 .. n-1] are structural, [n .. n+m-1] artificial. Artificial
   columns never re-enter the basis once they leave: phase 1 then still
   terminates at a true optimum of the restricted problem, and any feasible
   point of the original problem remains feasible with all artificials at
   zero, so the infeasibility test is unaffected.

   Pricing is steepest-edge-lite — Dantzig reduced costs scaled by static
   column norms ([d_j^2 / (1 + ||a_j||^2)]) — for the first [3*(m+n)]
   iterations, then Bland (smallest index), which guarantees termination
   even under degeneracy (bound flips are always nondegenerate: spans are
   strictly positive).

   Every hot array is an unboxed [float array] and every comparison inline;
   values within [eps] of each other compare equal. *)

exception Deadline_exceeded
exception Iteration_limit
exception Singular

let eps = 1e-9

type columns = {
  nrows : int;
  col_idx : int array array;
  col_val : float array array;
  col_weight : float array;
}

let columns ~nrows cols =
  Array.iter
    (fun col ->
      Array.iteri
        (fun k (i, _) ->
          if i < 0 || i >= nrows then invalid_arg "Tableau.columns: row out of range";
          if k > 0 && i <= fst col.(k - 1) then
            invalid_arg "Tableau.columns: rows not strictly increasing")
        col)
    cols;
  let col_val = Array.map (fun col -> Array.map snd col) cols in
  {
    nrows;
    col_idx = Array.map (fun col -> Array.map fst col) cols;
    col_val;
    col_weight =
      Array.map
        (fun vl -> Array.fold_left (fun acc x -> acc +. (x *. x)) 1.0 vl)
        col_val;
  }

type eta = {
  e_row : int;
  e_pivot : float;  (* 1 / alpha_r *)
  e_idx : int array;  (* rows i <> e_row with nonzero alpha_i *)
  e_val : float array;  (* -alpha_i / alpha_r, parallel to [e_idx] *)
}

let dummy_eta = { e_row = 0; e_pivot = 1.0; e_idx = [||]; e_val = [||] }

(* The eta file a refactorisation built from a snapshot's basis, and the row
   each basic column landed on. Never mutated once published. *)
type factor = { f_etas : eta array; f_basis : int array }

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  mutable s_factor : factor option;
}

type result =
  | Optimal of { value : float; x : float array; snapshot : snapshot }
  | Infeasible
  | Unbounded

type state = {
  m : int;
  n : int;
  (* structural columns, shared with the column store and never written *)
  cidx : int array array;
  cval : float array array;
  weight : float array;
  ubs : float array;  (* upper bound per structural column, [infinity] = none *)
  at_ub : bool array;
  basis : int array;
  pos : int array;
  x_b : float array;
  b : float array;
  nz : int array;  (* rows of the column an eta is being built from *)
  mutable etas : eta array;
  mutable n_etas : int;
  mutable factor_etas : int;
  max_iters : int;
  deadline : float option;
  (* per-solve counters, flushed to telemetry when the solve ends *)
  mutable iters : int;
  mutable pivots : int;
  mutable bland_pivots : int;
  mutable dual_pivots : int;
  mutable flips : int;
  mutable refactorisations : int;
  mutable factor_reuses : int;
  mutable btrans : int;
  mutable ftrans : int;
}

let clamp x = if Float.abs x <= eps then 0.0 else x
let fcmp a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
let ub_of st j = if j < st.n then st.ubs.(j) else infinity

let push_eta st e =
  if st.n_etas = Array.length st.etas then begin
    let bigger = Array.make (max 16 (2 * st.n_etas)) e in
    Array.blit st.etas 0 bigger 0 st.n_etas;
    st.etas <- bigger
  end;
  st.etas.(st.n_etas) <- e;
  st.n_etas <- st.n_etas + 1

(* [v <- B^-1 v]. Uncounted: {!factorise} applies it to each bump column,
   and the FTRANs it counts are the iterations' own ({!ftran}), so that the
   count does not depend on which sibling computes a shared factor. *)
let apply_etas st v =
  for t = 0 to st.n_etas - 1 do
    let e = st.etas.(t) in
    let x = v.(e.e_row) in
    if Float.abs x > eps then begin
      v.(e.e_row) <- e.e_pivot *. x;
      let idx = e.e_idx and vl = e.e_val in
      for k = 0 to Array.length idx - 1 do
        v.(idx.(k)) <- v.(idx.(k)) +. (vl.(k) *. x)
      done
    end
  done

let ftran st v =
  st.ftrans <- st.ftrans + 1;
  apply_etas st v

let btran st y =
  st.btrans <- st.btrans + 1;
  for t = st.n_etas - 1 downto 0 do
    let e = st.etas.(t) in
    let acc = ref (e.e_pivot *. y.(e.e_row)) in
    let idx = e.e_idx and vl = e.e_val in
    for k = 0 to Array.length idx - 1 do
      acc := !acc +. (vl.(k) *. y.(idx.(k)))
    done;
    y.(e.e_row) <- clamp !acc
  done

let scatter st j v =
  if j < st.n then begin
    let idx = st.cidx.(j) and vl = st.cval.(j) in
    for k = 0 to Array.length idx - 1 do
      v.(idx.(k)) <- vl.(k)
    done
  end
  else v.(j - st.n) <- 1.0

(* The eta of pivoting the FTRAN'd column [alpha] on [row], built from the
   rows [st.nz.(0 .. cnt-1)]: ascending, every row with [|alpha_i| > eps],
   [row] among them. *)
let push_eta_of_rows st ~row alpha cnt =
  let ar = alpha.(row) in
  let idx = Array.make (cnt - 1) 0 and vl = Array.make (cnt - 1) 0.0 in
  let k = ref 0 in
  for c = 0 to cnt - 1 do
    let i = st.nz.(c) in
    if i <> row then begin
      idx.(!k) <- i;
      vl.(!k) <- -.(alpha.(i) /. ar);
      incr k
    end
  done;
  push_eta st { e_row = row; e_pivot = 1.0 /. ar; e_idx = idx; e_val = vl }

(* One sweep over [alpha] collects its nonzero rows for the eta and moves
   x_B along the step; the pivot row's entry, which must be above [eps], is
   then overwritten with the entering variable's value. *)
let pivot st ~row ~col ~t ~dir ~enter_val alpha =
  let step = t *. dir in
  let cnt = ref 0 in
  for i = 0 to st.m - 1 do
    let a = alpha.(i) in
    if Float.abs a > eps then begin
      st.nz.(!cnt) <- i;
      incr cnt;
      st.x_b.(i) <- clamp (st.x_b.(i) -. (step *. a))
    end
  done;
  push_eta_of_rows st ~row alpha !cnt;
  st.x_b.(row) <- clamp (enter_val +. step);
  st.pos.(st.basis.(row)) <- -1;
  st.basis.(row) <- col;
  st.pos.(col) <- row

(* Rebuild the eta file from the current basis; the basic columns end up
   permuted onto their pivot rows. The pivot order is chosen to avoid fill
   in the rebuilt eta file — essential, because a naive Gauss-Jordan over LP
   bases produces near-dense etas and the FTRAN / BTRAN cost explodes:

   pass 1: identity-like columns (artificials and structural singletons)
           pivot on their own row with a trivial (term-free) eta;
   pass 2: repeatedly pivot a column that is alone on some untaken row. No
           other remaining column touches that row, so applying the eta
           downstream is a pattern no-op: each such eta carries exactly the
           column's own off-pivot entries and no fill. By the same argument
           no earlier pass-2 eta touches the column either — only the
           pass-1 scalings of the rows it meets — so its FTRAN'd column and
           eta are built from its own nonzeros in ascending row order, with
           the float operations the dense FTRAN would perform. A pivot entry
           within [eps] of zero breaks the argument (the column then pivots
           on another row, which later columns may meet), so from there on
           pass 2 takes the dense path of pass 3;
   pass 3: the residual "bump" (rarely more than a handful of columns in an
           LP basis) is eliminated densely, smallest column first, picking
           pivot rows by magnitude.

   The result depends only on the basis and the columns, never on [b],
   [ubs] or [at_ub], which is what lets a snapshot share it ({!factor}). *)
let factorise st =
  st.n_etas <- 0;
  let order = Array.copy st.basis in
  let taken = Array.make st.m false in
  let placed = Array.make st.m false in
  (* [e_pivot] of the pass-1 scaling eta on each row, [0.0] for none *)
  let scaling = Array.make st.m 0.0 in
  let v = Array.make st.m 0.0 in
  let place t col row =
    taken.(row) <- true;
    placed.(t) <- true;
    st.basis.(row) <- col
  in
  (* One sweep finds the column's nonzero rows and its largest untaken
     entry; the eta is then built from those rows only. *)
  let pivot_full t col ~row_hint =
    Array.fill v 0 st.m 0.0;
    scatter st col v;
    apply_etas st v;
    let cnt = ref 0 and best = ref (-1) and best_mag = ref 0.0 in
    for i = 0 to st.m - 1 do
      let mag = Float.abs v.(i) in
      if mag > eps then begin
        st.nz.(!cnt) <- i;
        incr cnt;
        if (not taken.(i)) && (!best < 0 || mag > !best_mag) then begin
          best := i;
          best_mag := mag
        end
      end
    done;
    let row =
      match row_hint with
      | Some r when Float.abs v.(r) > eps -> r
      | _ ->
        if !best < 0 then raise Singular;
        !best
    in
    push_eta_of_rows st ~row v !cnt;
    place t col row
  in
  let dense = ref false in
  (* Pass 2 on row [r]: the column's FTRAN'd entry at [k] is its raw entry,
     scaled if a pass-1 eta covers that row (and the entry is above [eps],
     as [ftran] skips the rest). *)
  let pivot_singleton t col r =
    let idx = st.cidx.(col) and vl = st.cval.(col) in
    let alpha k =
      let a = vl.(k) and p = scaling.(idx.(k)) in
      if p <> 0.0 && Float.abs a > eps then p *. a else a
    in
    let kr = ref 0 in
    while idx.(!kr) <> r do incr kr done;
    let ar = vl.(!kr) in
    if !dense || Float.abs ar <= eps then begin
      dense := true;
      pivot_full t col ~row_hint:(Some r)
    end
    else begin
      let cnt = ref 0 in
      for k = 0 to Array.length idx - 1 do
        if k <> !kr && Float.abs (alpha k) > eps then incr cnt
      done;
      let e_idx = Array.make !cnt 0 and e_val = Array.make !cnt 0.0 in
      let c = ref 0 in
      for k = 0 to Array.length idx - 1 do
        if k <> !kr then begin
          let a = alpha k in
          if Float.abs a > eps then begin
            e_idx.(!c) <- idx.(k);
            e_val.(!c) <- -.(a /. ar);
            incr c
          end
        end
      done;
      push_eta st { e_row = r; e_pivot = 1.0 /. ar; e_idx; e_val };
      place t col r
    end
  in
  Array.iteri
    (fun t col ->
      if col >= st.n then begin
        let r = col - st.n in
        if not taken.(r) then place t col r
      end
      else if Array.length st.cidx.(col) = 1 then begin
        let r = st.cidx.(col).(0) in
        if not taken.(r) then begin
          let a = st.cval.(col).(0) in
          if fcmp a 1.0 <> 0 then begin
            push_eta st { e_row = r; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] };
            scaling.(r) <- 1.0 /. a
          end;
          place t col r
        end
      end)
    order;
  let row_count = Array.make st.m 0 in
  let row_cols = Array.make st.m [] in
  Array.iteri
    (fun t col ->
      if not placed.(t) then
        Array.iter
          (fun i ->
            if not taken.(i) then begin
              row_count.(i) <- row_count.(i) + 1;
              row_cols.(i) <- t :: row_cols.(i)
            end)
          st.cidx.(col))
    order;
  let queue = Queue.create () in
  for i = 0 to st.m - 1 do
    if (not taken.(i)) && row_count.(i) = 1 then Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let r = Queue.take queue in
    if (not taken.(r)) && row_count.(r) = 1 then
      match List.find_opt (fun t -> not placed.(t)) row_cols.(r) with
      | None -> ()
      | Some t ->
        let col = order.(t) in
        pivot_singleton t col r;
        Array.iter
          (fun i ->
            if not taken.(i) then begin
              row_count.(i) <- row_count.(i) - 1;
              if row_count.(i) = 1 then Queue.add i queue
            end)
          st.cidx.(col)
  done;
  let bump = ref [] in
  Array.iteri (fun t _ -> if not placed.(t) then bump := t :: !bump) order;
  let bump =
    List.sort
      (fun t1 t2 ->
        compare (Array.length st.cidx.(order.(t1))) (Array.length st.cidx.(order.(t2))))
      !bump
  in
  List.iter (fun t -> pivot_full t order.(t) ~row_hint:None) bump

(* Recompute x_B = B^-1 (b - N_U u_U) under the current eta file, which
   becomes the new base for the refactorisation threshold. *)
let load_x_b st =
  Array.fill st.pos 0 (st.n + st.m) (-1);
  Array.iteri (fun i col -> st.pos.(col) <- i) st.basis;
  Array.blit st.b 0 st.x_b 0 st.m;
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 && st.at_ub.(j) then begin
      let u = st.ubs.(j) in
      let idx = st.cidx.(j) and vl = st.cval.(j) in
      for k = 0 to Array.length idx - 1 do
        st.x_b.(idx.(k)) <- st.x_b.(idx.(k)) -. (vl.(k) *. u)
      done
    end
  done;
  ftran st st.x_b;
  for i = 0 to st.m - 1 do
    st.x_b.(i) <- clamp st.x_b.(i)
  done;
  st.factor_etas <- st.n_etas

let refactor st =
  let rt0 = Telemetry.Clock.now_s () in
  st.refactorisations <- st.refactorisations + 1;
  factorise st;
  load_x_b st;
  Telemetry.observe "lp.simplex.refactor_s" (Telemetry.Clock.now_s () -. rt0)

(* Entering column among the structural nonbasics: a variable at its lower
   bound enters on a negative reduced cost (moving up), one at its upper
   bound on a positive reduced cost (moving down). Steepest-edge-lite or
   Bland. Phase 1 prices the sum of artificials, phase 2 the structural
   costs [c]; artificials are never priced back in. Returns the column and
   its direction, leaving its FTRAN'd tableau column in [alpha]. *)
let entering st ~c ~phase2 ~bland ~y alpha =
  for i = 0 to st.m - 1 do
    let bv = st.basis.(i) in
    y.(i) <-
      (if phase2 then if bv < st.n then c.(bv) else 0.0
       else if bv >= st.n then 1.0
       else 0.0)
  done;
  btran st y;
  let reduced j =
    let s = ref (if phase2 then c.(j) else 0.0) in
    let idx = st.cidx.(j) and vl = st.cval.(j) in
    for k = 0 to Array.length idx - 1 do
      s := !s -. (vl.(k) *. y.(idx.(k)))
    done;
    !s
  in
  (* Zero-span columns (variables fixed by a branching bound change in a
     warm re-solve) can neither step nor flip: entering one would loop on
     zero-length bound flips, so they are never eligible. *)
  let eligible j d =
    st.ubs.(j) > eps && if st.at_ub.(j) then d > eps else d < -.eps
  in
  let chosen =
    if bland then begin
      let rec go j =
        if j >= st.n then -1
        else if st.pos.(j) < 0 && eligible j (reduced j) then j
        else go (j + 1)
      in
      go 0
    end
    else begin
      let best = ref (-1) and best_score = ref 0.0 in
      for j = 0 to st.n - 1 do
        if st.pos.(j) < 0 then begin
          let d = reduced j in
          if eligible j d then begin
            let score = d *. d /. st.weight.(j) in
            if score > !best_score then begin
              best := j;
              best_score := score
            end
          end
        end
      done;
      !best
    end
  in
  if chosen < 0 then None
  else begin
    Array.fill alpha 0 st.m 0.0;
    scatter st chosen alpha;
    ftran st alpha;
    Some (chosen, if st.at_ub.(chosen) then -1.0 else 1.0)
  end

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
      let candidate ratio to_ub =
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
      in
      if aeff > eps then candidate (st.x_b.(i) /. aeff) false
      else begin
        let u = ub_of st bv in
        if u < infinity then candidate ((u -. st.x_b.(i)) /. -.aeff) true
        else if phase2 && art && Float.abs st.x_b.(i) <= eps then candidate 0.0 false
      end
    end
  done;
  if !best < 0 then if span < infinity then Flip else Unbounded_dir
  else if span < infinity && fcmp span !best_ratio <= 0 then Flip
  else Leave { row = !best; t = !best_ratio; to_ub = !best_to_ub }

(* Start one pivot iteration: check the deadline (the clock is read every
   16 iterations only) and refactorise once the pivots since the last
   refactorisation pass the limit. That count is not the total eta-file
   length: refactorising itself emits up to [m] etas, so an absolute
   threshold below [m] would re-trigger on every iteration. *)
let begin_iteration st =
  (match st.deadline with
   | Some t when st.iters land 15 = 0 && Telemetry.Clock.now_s () > t ->
     Telemetry.count "lp.simplex.deadline_aborts";
     raise Deadline_exceeded
   | Some _ | None -> ());
  st.iters <- st.iters + 1;
  if st.n_etas - st.factor_etas > min 150 (50 + (st.m / 4)) then refactor st

let run_phase st ~c ~phase2 alpha =
  let switch = 3 * (st.m + st.n) in
  let y = Array.make st.m 0.0 in
  let rec loop () =
    if st.iters > st.max_iters then raise Iteration_limit;
    begin_iteration st;
    let bland = st.iters > switch in
    match entering st ~c ~phase2 ~bland ~y alpha with
    | None -> `Optimal
    | Some (col, dir) -> begin
      let span = st.ubs.(col) in
      match ratio_test st alpha ~dir ~span ~phase2 with
      | Unbounded_dir -> `Unbounded
      | Flip ->
        let step = span *. dir in
        for i = 0 to st.m - 1 do
          if Float.abs alpha.(i) > eps then
            st.x_b.(i) <- clamp (st.x_b.(i) -. (step *. alpha.(i)))
        done;
        st.at_ub.(col) <- not st.at_ub.(col);
        st.flips <- st.flips + 1;
        loop ()
      | Leave { row; t; to_ub } ->
        let leaving = st.basis.(row) in
        let enter_val = if st.at_ub.(col) then st.ubs.(col) else 0.0 in
        pivot st ~row ~col ~t ~dir ~enter_val alpha;
        st.at_ub.(col) <- false;
        if leaving < st.n then st.at_ub.(leaving) <- to_ub;
        st.pivots <- st.pivots + 1;
        if bland then st.bland_pivots <- st.bland_pivots + 1;
        loop ()
    end
  in
  loop ()

(* After phase 1, pivot remaining basic artificials out wherever some
   structural column has a nonzero entry in their row (a degenerate entry at
   the entering variable's current value); rows whose structural part is
   entirely zero are redundant and are handled by the phase-2 ratio test
   instead. *)
let drive_out_artificials st =
  let rho = Array.make st.m 0.0 in
  let alpha = Array.make st.m 0.0 in
  for i = 0 to st.m - 1 do
    if st.basis.(i) >= st.n then begin
      Array.fill rho 0 st.m 0.0;
      rho.(i) <- 1.0;
      btran st rho;
      let row_entry j =
        let s = ref 0.0 in
        let idx = st.cidx.(j) and vl = st.cval.(j) in
        for k = 0 to Array.length idx - 1 do
          s := !s +. (vl.(k) *. rho.(idx.(k)))
        done;
        !s
      in
      let rec find j =
        if j >= st.n then -1
        else if st.pos.(j) < 0 && Float.abs (row_entry j) > eps then j
        else find (j + 1)
      in
      let col = find 0 in
      if col >= 0 then begin
        Array.fill alpha 0 st.m 0.0;
        scatter st col alpha;
        ftran st alpha;
        if Float.abs alpha.(i) > eps then begin
          let enter_val = if st.at_ub.(col) then st.ubs.(col) else 0.0 in
          pivot st ~row:i ~col ~t:0.0 ~dir:1.0 ~enter_val alpha;
          st.at_ub.(col) <- false;
          st.pivots <- st.pivots + 1
        end
      end
    end
  done

(* Dual simplex: restore primal feasibility of an inherited basis after the
   rhs / bound changes of a branch-and-bound child node, without giving up
   the parent's dual feasibility (the reduced-cost sign pattern depends only
   on the basis and the costs, neither of which branching touches).

   Bound-ratio pricing picks the leaving row — the basic variable with the
   largest bound violation, scaled by its static column norm, mirroring the
   primal's steepest-edge-lite rule — and the ratio test runs over the eta
   file: one BTRAN for the pivot row of B^-1, then a sweep of the nonbasic
   structural columns computing the pivot row alpha_r and collecting every
   sign-eligible entry with its ratio |d_j| / |alpha_rj|. The ratio test is
   the bound-flipping ("long step") variant described at the walk below;
   all flips of one iteration are applied with a single accumulated FTRAN,
   so a flip-heavy repair costs one pricing round instead of one per flip
   (the naive variant hit ~800 full reprices per warm solve on the paper's
   case 1).

   The reduced costs [d] are priced from a fresh BTRAN of the simplex
   multipliers only at the first iteration and after each refactorisation.
   Every dual pivot then updates them from the pivot row it already swept:
   d_j -= theta_D * alpha_rj with theta_D = d_q / alpha_rq, so the entering
   column's becomes 0 and the leaving column's -theta_D (Koberstein, "The
   Dual Simplex Method, Techniques for a Fast and Stable Implementation",
   PhD thesis, Paderborn 2005). Flips leave [d] alone: it depends on the
   basis only. Updates accumulate rounding for at most one refactorisation
   interval, and whatever dual infeasibility that leaves is polished off by
   the primal phase that follows, which prices afresh every iteration.

   Artificial columns are pinned to [0, 0] here: the parent solve left them
   at zero, and a nonzero artificial under the child's rhs is precisely an
   equality-row violation the dual steps must repair. Artificials are never
   priced back in; if no eligible entering column exists the row is a valid
   infeasibility certificate, as trustworthy as the primal phase-1 test. *)
let dual_phase st ~c alpha =
  let y = Array.make st.m 0.0 in
  let rho = Array.make st.m 0.0 in
  let delta = Array.make st.m 0.0 in
  let d = Array.make st.n 0.0 in
  let row_r = Array.make st.n 0.0 in
  let cand = Array.make st.n 0 in
  let cand_ratio = Array.make st.n 0.0 in
  let cand_arj = Array.make st.n 0.0 in
  let hi_of bv = if bv < st.n then st.ubs.(bv) else 0.0 in
  (* [d] holds the reduced costs of the swept columns (nonbasic, nonzero
     span; fixed columns never enter, so theirs are never read);
     [priced_at] is the refactorisation count they were last priced under,
     [-1] for never *)
  let priced_at = ref (-1) in
  let price () =
    for i = 0 to st.m - 1 do
      let bv = st.basis.(i) in
      y.(i) <- (if bv < st.n then c.(bv) else 0.0)
    done;
    btran st y;
    for j = 0 to st.n - 1 do
      if st.pos.(j) < 0 && st.ubs.(j) > eps then begin
        let dj = ref c.(j) in
        let idx = st.cidx.(j) and vl = st.cval.(j) in
        for k = 0 to Array.length idx - 1 do
          dj := !dj -. (vl.(k) *. y.(idx.(k)))
        done;
        d.(j) <- !dj
      end
    done;
    priced_at := st.refactorisations
  in
  let rec loop () =
    if st.iters > st.max_iters then `Cycled
    else begin
      begin_iteration st;
      (* Bound-ratio pricing of the infeasible basic variables. *)
      let row = ref (-1) and score = ref 0.0 and above = ref false in
      for i = 0 to st.m - 1 do
        let bv = st.basis.(i) in
        let hi = hi_of bv in
        let viol, ab =
          if st.x_b.(i) < -.eps then (-.st.x_b.(i), false)
          else if st.x_b.(i) > hi +. eps then (st.x_b.(i) -. hi, true)
          else (0.0, false)
        in
        if viol > 0.0 then begin
          let w = if bv < st.n then st.weight.(bv) else 2.0 in
          let s = viol *. viol /. w in
          if s > !score then begin
            row := i;
            score := s;
            above := ab
          end
        end
      done;
      if !row < 0 then `Primal_feasible
      else begin
        let r = !row in
        let leaving = st.basis.(r) in
        if !priced_at <> st.refactorisations then price ();
        Array.fill rho 0 st.m 0.0;
        rho.(r) <- 1.0;
        btran st rho;
        (* Collect every sign-eligible nonbasic structural column with its
           dual ratio |d_j| / |alpha_rj|, keeping the whole pivot row for
           the reduced-cost update. *)
        let ncand = ref 0 in
        for j = 0 to st.n - 1 do
          if st.pos.(j) < 0 && st.ubs.(j) > eps then begin
            let arj = ref 0.0 in
            let idx = st.cidx.(j) and vl = st.cval.(j) in
            for k = 0 to Array.length idx - 1 do
              arj := !arj +. (vl.(k) *. rho.(idx.(k)))
            done;
            let arj = !arj in
            row_r.(j) <- arj;
            let eligible =
              if !above then
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
          let order = Array.init !ncand Fun.id in
          Array.sort
            (fun a b ->
              let cr = Float.compare cand_ratio.(a) cand_ratio.(b) in
              if cr <> 0 then cr
              else
                let cm =
                  Float.compare (Float.abs cand_arj.(b))
                    (Float.abs cand_arj.(a))
                in
                if cm <> 0 then cm else compare cand.(a) cand.(b))
            order;
          let target = if !above then hi_of leaving else 0.0 in
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
               columns sum into [delta] and x_B -= B^-1 delta. *)
            if !nflip > 0 then begin
              Array.fill delta 0 st.m 0.0;
              for f = 0 to !nflip - 1 do
                let j = cand.(order.(f)) in
                let u = st.ubs.(j) in
                let fstep = if st.at_ub.(j) then -.u else u in
                let idx = st.cidx.(j) and vl = st.cval.(j) in
                for t = 0 to Array.length idx - 1 do
                  delta.(idx.(t)) <- delta.(idx.(t)) +. (fstep *. vl.(t))
                done;
                st.at_ub.(j) <- not st.at_ub.(j);
                st.flips <- st.flips + 1
              done;
              ftran st delta;
              for i = 0 to st.m - 1 do
                if Float.abs delta.(i) > eps then
                  st.x_b.(i) <- clamp (st.x_b.(i) -. delta.(i))
              done
            end;
            let j = !enter in
            Array.fill alpha 0 st.m 0.0;
            scatter st j alpha;
            ftran st alpha;
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
                for k = 0 to st.n - 1 do
                  if st.pos.(k) < 0 && st.ubs.(k) > eps then
                    d.(k) <- d.(k) -. (theta *. row_r.(k))
                done;
                d.(j) <- 0.0;
                if leaving < st.n then d.(leaving) <- -.theta;
                let enter_val = if st.at_ub.(j) then st.ubs.(j) else 0.0 in
                pivot st ~row:r ~col:j ~t:step ~dir:1.0 ~enter_val alpha;
                st.at_ub.(j) <- false;
                if leaving < st.n then st.at_ub.(leaving) <- !above;
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

let make_state ~max_iters ~deadline ~cols ~ubs ~at_ub ~basis ~pos ~x_b ~b =
  {
    m = cols.nrows;
    n = Array.length cols.col_idx;
    cidx = cols.col_idx;
    cval = cols.col_val;
    weight = cols.col_weight;
    ubs;
    at_ub;
    basis;
    pos;
    x_b;
    b;
    nz = Array.make cols.nrows 0;
    etas = [| dummy_eta |];
    n_etas = 0;
    factor_etas = 0;
    max_iters;
    deadline;
    iters = 0;
    pivots = 0;
    bland_pivots = 0;
    dual_pivots = 0;
    flips = 0;
    refactorisations = 0;
    factor_reuses = 0;
    btrans = 0;
    ftrans = 0;
  }

let flush st ~warm =
  Telemetry.count (if warm then "lp.simplex.warm_solves" else "lp.simplex.solves");
  Telemetry.count ~by:st.pivots "lp.simplex.pivots";
  if warm then Telemetry.count ~by:st.dual_pivots "lp.simplex.dual_pivots";
  Telemetry.count ~by:st.bland_pivots "lp.simplex.bland_pivots";
  Telemetry.count ~by:st.flips "lp.simplex.bound_flips";
  Telemetry.count ~by:st.refactorisations "lp.simplex.refactorisations";
  Telemetry.count ~by:st.factor_reuses "lp.simplex.factor_reuses";
  Telemetry.count ~by:st.btrans "lp.simplex.btrans";
  Telemetry.count ~by:st.ftrans "lp.simplex.ftrans"

(* The current vertex: nonbasic columns at their resting bound, basic ones
   at [x_b], and its cost under [c]. *)
let vertex st c =
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

let snapshot_of st =
  {
    s_basis = Array.copy st.basis;
    s_at_ub = Array.copy st.at_ub;
    s_factor = None;
  }

(* Factorise a warm solve's starting basis, the snapshot's. The first solve
   from a snapshot refactorises and memoises the result in it; every later
   one (the parent's second child) copies the memoised eta array — its own
   pivots append to the copy — and recomputes only x_B, which is where
   [b], [ubs] and [at_ub] enter. Both paths leave the same state, bit for
   bit, since {!factorise} reads nothing else. *)
let factor_from st snapshot =
  match snapshot.s_factor with
  | Some f ->
    st.factor_reuses <- st.factor_reuses + 1;
    st.etas <- Array.copy f.f_etas;
    st.n_etas <- Array.length f.f_etas;
    Array.blit f.f_basis 0 st.basis 0 st.m;
    load_x_b st
  | None ->
    refactor st;
    snapshot.s_factor <-
      Some
        { f_etas = Array.sub st.etas 0 st.n_etas; f_basis = Array.copy st.basis }

let resolve_with_basis ?(max_iters = 50_000) ?deadline ~cols ~b ~c ~ubs
    ~snapshot () =
  let m = cols.nrows and n = Array.length cols.col_idx in
  if Array.length b <> m then invalid_arg "Tableau.resolve: b length";
  if Array.length c <> n then invalid_arg "Tableau.resolve: c length";
  if Array.length ubs <> n then invalid_arg "Tableau.resolve: ubs length";
  if
    Array.length snapshot.s_basis <> m
    || Array.length snapshot.s_at_ub <> n
  then invalid_arg "Tableau.resolve: snapshot shape";
  (* A negative span means the node fixed a variable to an impossible
     range: the subproblem is infeasible before any pivoting. *)
  if Array.exists (function Some u -> u < -.eps | None -> false) ubs then
    Ok Infeasible
  else begin
    let ub_arr =
      Array.map (function Some x -> Float.max x 0.0 | None -> infinity) ubs
    in
    let basis = Array.copy snapshot.s_basis in
    let at_ub = Array.copy snapshot.s_at_ub in
    let pos = Array.make (n + m) (-1) in
    let sane = ref true in
    Array.iteri
      (fun i colid ->
        if colid < 0 || colid >= n + m || pos.(colid) >= 0 then sane := false
        else pos.(colid) <- i)
      basis;
    for j = 0 to n - 1 do
      if at_ub.(j) && (pos.(j) >= 0 || ub_arr.(j) = infinity) then
        at_ub.(j) <- false
    done;
    if not !sane then Error "corrupt basis snapshot"
    else begin
      let st =
        make_state ~max_iters ~deadline ~cols ~ubs:ub_arr ~at_ub ~basis ~pos
          ~x_b:(Array.make m 0.0) ~b
      in
      Fun.protect ~finally:(fun () -> flush st ~warm:true) @@ fun () ->
      let alpha = Array.make m 0.0 in
      match
        (try
           factor_from st snapshot;
           dual_phase st ~c alpha
         with Singular -> `Failed "singular basis on refactorisation")
      with
      | `Failed msg -> Error msg
      | `Cycled -> Error "dual iteration limit"
      | `Numerical -> Error "dual numerical drift"
      | `Dual_unbounded -> Ok Infeasible
      | `Primal_feasible -> (
        (* Primal clean-up: the dual phase ends primal feasible, and any
           residual dual infeasibility is polished off by ordinary phase-2
           pivots. *)
        match
          (try run_phase st ~c ~phase2:true alpha with
           | Singular -> `Failed "singular basis on refactorisation"
           | Iteration_limit -> `Failed "polish iteration limit")
        with
        | `Failed msg -> Error msg
        | `Unbounded -> Ok Unbounded
        | `Optimal ->
          (* Accuracy cross-check before trusting the inherited basis: the
             resolved point must satisfy the bound system and A x = b. *)
          let tol = 1e-7 in
          let value, x = vertex st c in
          let ok = ref true in
          for i = 0 to m - 1 do
            let bv = st.basis.(i) in
            if bv < n then begin
              if st.x_b.(i) < -.tol then ok := false;
              if st.x_b.(i) -. st.ubs.(bv) > tol then ok := false
            end
            else if Float.abs st.x_b.(i) > tol then ok := false
          done;
          let resid = Array.copy st.b in
          for j = 0 to n - 1 do
            let xj = x.(j) in
            if Float.abs xj > 0.0 then begin
              let idx = st.cidx.(j) and vl = st.cval.(j) in
              for k = 0 to Array.length idx - 1 do
                resid.(idx.(k)) <- resid.(idx.(k)) -. (vl.(k) *. xj)
              done
            end
          done;
          let scale =
            Array.fold_left (fun acc bi -> Float.max acc (Float.abs bi)) 1.0 st.b
          in
          Array.iter
            (fun ri -> if Float.abs ri > 1e-6 *. scale then ok := false)
            resid;
          if !ok then Ok (Optimal { value; x; snapshot = snapshot_of st })
          else Error "warm solve lost accuracy")
    end
  end

let solve_cols ?(max_iters = 50_000) ?deadline ?ubs ~cols ~b ~c () =
  let m = cols.nrows and n = Array.length cols.col_idx in
  if Array.length b <> m then invalid_arg "Tableau.solve: b length";
  if Array.length c <> n then invalid_arg "Tableau.solve: c length";
  let ub_arr = Array.make n infinity in
  (match ubs with
   | None -> ()
   | Some u ->
     if Array.length u <> n then invalid_arg "Tableau.solve: ubs length";
     Array.iteri
       (fun j uo ->
         match uo with
         | Some x when x <= eps -> invalid_arg "Tableau.solve: non-positive upper bound"
         | Some x -> ub_arr.(j) <- x
         | None -> ())
       u);
  Array.iter (fun bi -> if bi < -.eps then invalid_arg "Tableau.solve: negative rhs") b;
  let st =
    make_state ~max_iters ~deadline ~cols ~ubs:ub_arr
      ~at_ub:(Array.make n false)
      ~basis:(Array.init m (fun i -> n + i))
      ~pos:(Array.make (n + m) (-1))
      ~x_b:(Array.map clamp b) ~b
  in
  (* Crash basis: cover each row with a positive structural singleton column
     without an upper bound (a slack, ...) where one exists — the basis
     stays diagonal, so x_B = b (rescaled) stays feasible — and only the
     remaining rows get artificials for phase 1 to clear. *)
  let covered = Array.make m false in
  for j = 0 to n - 1 do
    if Array.length st.cidx.(j) = 1 then begin
      let i = st.cidx.(j).(0) in
      if (not covered.(i)) && st.cval.(j).(0) > eps && ub_arr.(j) = infinity
      then begin
        covered.(i) <- true;
        st.basis.(i) <- j
      end
    end
  done;
  for i = 0 to m - 1 do
    st.pos.(st.basis.(i)) <- i;
    if covered.(i) then begin
      let a = st.cval.(st.basis.(i)).(0) in
      if fcmp a 1.0 <> 0 then begin
        push_eta st { e_row = i; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] };
        st.x_b.(i) <- clamp (st.x_b.(i) /. a)
      end
    end
  done;
  st.factor_etas <- st.n_etas;
  Fun.protect ~finally:(fun () -> flush st ~warm:false) @@ fun () ->
  let alpha = Array.make m 0.0 in
  (* Phase 1 minimises the sum of artificials, phase 2 the real costs. A sum
     of artificials is bounded below, so phase 1 unbounded is numerical. *)
  match run_phase st ~c ~phase2:false alpha with
  | `Unbounded -> raise Singular
  | `Optimal ->
    let infeas = ref 0.0 in
    for i = 0 to m - 1 do
      if st.basis.(i) >= n then infeas := !infeas +. st.x_b.(i)
    done;
    if !infeas > eps then Infeasible
    else begin
      drive_out_artificials st;
      match run_phase st ~c ~phase2:true alpha with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let value, x = vertex st c in
        Optimal { value; x; snapshot = snapshot_of st }
    end
