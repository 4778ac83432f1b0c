module Q = Numeric.Rat

type sense = Le | Ge | Eq
type var_kind = Continuous | Integer | Binary
type var = int

type var_info = {
  vname : string;
  lb : Q.t;
  ub : Q.t option;
  kind : var_kind;
}

type constr = { cname : string; expr : Linexpr.t; sense : sense; rhs : Q.t }

type t = {
  mname : string;
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : constr list; (* reversed *)
  mutable nconstrs : int;
  mutable obj_dir : [ `Minimize | `Maximize ];
  mutable obj : Linexpr.t;
}

let create ?(name = "model") () =
  {
    mname = name;
    vars = Array.make 16 { vname = ""; lb = Q.zero; ub = None; kind = Continuous };
    nvars = 0;
    constrs = [];
    nconstrs = 0;
    obj_dir = `Minimize;
    obj = Linexpr.zero;
  }

let add_var m ?(lb = Q.zero) ?ub ?(kind = Continuous) vname =
  let lb, ub =
    match kind with Binary -> (Q.zero, Some Q.one) | Integer | Continuous -> (lb, ub)
  in
  if m.nvars = Array.length m.vars then begin
    let bigger = Array.make (2 * m.nvars) m.vars.(0) in
    Array.blit m.vars 0 bigger 0 m.nvars;
    m.vars <- bigger
  end;
  m.vars.(m.nvars) <- { vname; lb; ub; kind };
  m.nvars <- m.nvars + 1;
  m.nvars - 1

let check_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Model: variable out of range"

let add_constr m ?name lhs sense rhs =
  let expr = Linexpr.sub lhs rhs in
  let k = Linexpr.const_part expr in
  let expr = Linexpr.add_constant expr (Q.neg k) in
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.nconstrs
  in
  (if Linexpr.max_var expr >= m.nvars then
     invalid_arg "Model.add_constr: expression uses unknown variable");
  m.constrs <- { cname; expr; sense; rhs = Q.neg k } :: m.constrs;
  m.nconstrs <- m.nconstrs + 1

let set_objective m dir obj =
  if Linexpr.max_var obj >= m.nvars then
    invalid_arg "Model.set_objective: expression uses unknown variable";
  m.obj_dir <- dir;
  m.obj <- obj

let var_count m = m.nvars
let constr_count m = m.nconstrs
let var_name m v = check_var m v; m.vars.(v).vname
let var_kind m v = check_var m v; m.vars.(v).kind
let var_lb m v = check_var m v; m.vars.(v).lb
let var_ub m v = check_var m v; m.vars.(v).ub

let is_integer_var m v =
  match var_kind m v with Integer | Binary -> true | Continuous -> false

let objective m = (m.obj_dir, m.obj)

let constraints m =
  List.rev_map (fun c -> (c.cname, c.expr, c.sense, c.rhs)) m.constrs

let reduce m ~lbs ~ubs rows =
  if Array.length lbs <> m.nvars || Array.length ubs <> m.nvars then
    invalid_arg "Model.reduce: one bound per variable expected";
  let constr (cname, expr, sense, rhs) = { cname; expr; sense; rhs } in
  (* slots past [nvars] are spare capacity for [add_var] *)
  let vars =
    Array.mapi
      (fun v i -> if v < m.nvars then { i with lb = lbs.(v); ub = ubs.(v) } else i)
      m.vars
  in
  { m with vars; constrs = List.rev_map constr rows; nconstrs = List.length rows }

let check_feasible_exact m value =
  let violations = ref [] in
  let push name amount = violations := (name, amount) :: !violations in
  let check_constr c =
    let excess = Q.sub (Linexpr.eval value c.expr) c.rhs in
    match c.sense with
    | Le -> if Q.sign excess > 0 then push c.cname excess
    | Ge -> if Q.sign excess < 0 then push c.cname (Q.neg excess)
    | Eq -> if Q.sign excess <> 0 then push c.cname (Q.abs excess)
  in
  List.iter check_constr m.constrs;
  for v = 0 to m.nvars - 1 do
    let x = value v in
    let info = m.vars.(v) in
    if Q.compare x info.lb < 0 then push (info.vname ^ ":lb") (Q.sub info.lb x);
    (match info.ub with
     | Some u when Q.compare x u > 0 -> push (info.vname ^ ":ub") (Q.sub x u)
     | Some _ | None -> ());
    match info.kind with
    | (Integer | Binary) when not (Q.is_integer x) ->
      push (info.vname ^ ":int") (Q.sub x (Q.of_bigint (Q.floor x)))
    | Integer | Binary | Continuous -> ()
  done;
  List.rev !violations

let name m = m.mname

let pp fmt m =
  let vname v = m.vars.(v).vname in
  let dir = match m.obj_dir with `Minimize -> "Minimize" | `Maximize -> "Maximize" in
  Format.fprintf fmt "@[<v>\\ %s@,%s@,  obj: %a@,Subject To@," m.mname dir
    (Linexpr.pp vname) m.obj;
  let emit c =
    let op = match c.sense with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf fmt "  %s: %a %s %s@," c.cname (Linexpr.pp vname) c.expr op
      (Q.to_string c.rhs)
  in
  List.iter emit (List.rev m.constrs);
  Format.fprintf fmt "Bounds@,";
  for v = 0 to m.nvars - 1 do
    let i = m.vars.(v) in
    let ub = match i.ub with Some q -> Q.to_string q | None -> "inf" in
    Format.fprintf fmt "  %s <= %s <= %s@," (Q.to_string i.lb) i.vname ub
  done;
  Format.fprintf fmt "Generals@,  ";
  for v = 0 to m.nvars - 1 do
    if m.vars.(v).kind <> Continuous then Format.fprintf fmt "%s " m.vars.(v).vname
  done;
  Format.fprintf fmt "@,End@]"
