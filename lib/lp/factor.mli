(** The basis inverse of the {!Tableau} kernel as a product-form eta file
    over one column store's structural columns [0 .. n-1], the artificial
    columns [n .. n+m-1] being signed unit vectors. FTRAN applies the etas
    in file order, BTRAN in reverse. Each pivot appends an eta ({!update}),
    and the file is rebuilt from the basis ({!factorise}) once {!due}, which
    bounds the FTRAN / BTRAN cost and drains accumulated roundoff. A
    refactorisation places the identity-like and triangular columns of the
    basis first, then eliminates the remaining "bump" column by column
    through only the etas and rows each column reaches, in file order, so
    it costs the nonzeros it touches rather than [m] or the length of the
    file; its etas and every float operation are those of applying the
    whole file. A factor serves one solve at a time. *)

exception Singular
(** A basis with no pivot above the tolerance [1e-9] left for a column. *)

type t

val create : nrows:int -> int array array -> float array array -> t
(** [create ~nrows col_idx col_val]: an empty factor over the sparse
    columns (row indices ascending), which it never writes. *)

val factorise : t -> art:float array -> int array -> int
(** [factorise f ~art basis] rebuilds the file from [basis], the column
    basic in each row, and permutes [basis] onto the pivot rows. The
    artificial column of row [i] is [art.(i)] times the unit vector [e_i],
    with [art.(i)] either [1.0] or [-1.0]. The file depends only on the
    basis, [art] and the columns. Returns the number of bump columns.
    @raise Singular on a singular basis. *)

val ftran : t -> float array -> unit
(** [v <- B^-1 v]. *)

val btran : t -> float array -> unit
(** [y <- B^-T y], entries within [1e-9] of zero set to zero. *)

val update : t -> row:int -> float array -> int array -> int -> unit
(** [update f ~row alpha rows cnt] appends the eta of a pivot on [row] of
    the FTRAN'd entering column [alpha], whose entries above [1e-9] are on
    the rows [rows.(0 .. cnt-1)], ascending, [row] among them. *)

val due : t -> bool
(** More than [min 150 (50 + m/4)] etas were appended since the file was
    last rebuilt or restored (not in all: a rebuild emits up to [m]). *)

val nnz : t -> int
(** The nonzeros of the file: a pivot and the off-pivot entries of each
    eta. *)

type memo
(** A copy of the file and of the permuted basis, never mutated. *)

val memo : t -> int array -> memo
(** [memo f basis], taken right after {!factorise}, lets a later solve
    from the same basis skip the refactorisation ({!restore}). *)

val restore : t -> memo -> int array -> unit
(** [restore f memo basis] restores the file as the new base for {!due}
    and copies its basis into [basis]: bit for bit the state refactorising
    that basis leaves. *)

val clear : t -> unit
(** Empty the file, so that no eta stays alive between solves. *)
