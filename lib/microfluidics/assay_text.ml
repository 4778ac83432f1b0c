open Components

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

(* ---------------------------------------------------------------- lexer *)

type token =
  | Ident of string (* identifiers and keywords; may contain '-' *)
  | String_lit of string
  | Int_lit of int
  | Float_lit of float
  | Lbrace
  | Rbrace
  | Equals
  | Comma
  | Arrow

type lexed = { token : token; line : int }

exception Lex_error of error

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let lex source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push token = tokens := { token; line = !line } :: !tokens in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && source.[!i] <> '\n' do incr i done
    end
    else if c = '{' then begin push Lbrace; incr i end
    else if c = '}' then begin push Rbrace; incr i end
    else if c = '=' then begin push Equals; incr i end
    else if c = ',' then begin push Comma; incr i end
    else if c = '-' && !i + 1 < n && source.[!i + 1] = '>' then begin
      push Arrow;
      i := !i + 2
    end
    else if c = '"' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && source.[!j] <> '"' && source.[!j] <> '\n' do incr j done;
      if !j >= n || source.[!j] <> '"' then
        raise (Lex_error { line = !line; message = "unterminated string" });
      push (String_lit (String.sub source start (!j - start)));
      i := !j + 1
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && source.[!i] >= '0' && source.[!i] <= '9' do incr i done;
      if !i < n && source.[!i] = '.' && !i + 1 < n && source.[!i + 1] >= '0'
         && source.[!i + 1] <= '9'
      then begin
        incr i;
        while !i < n && source.[!i] >= '0' && source.[!i] <= '9' do incr i done;
        push (Float_lit (float_of_string (String.sub source start (!i - start))))
      end
      else begin
        let literal = String.sub source start (!i - start) in
        match int_of_string_opt literal with
        | Some k -> push (Int_lit k)
        | None ->
          raise
            (Lex_error
               { line = !line; message = Printf.sprintf "integer %s is too large" literal })
      end
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do incr i done;
      push (Ident (String.sub source start (!i - start)))
    end
    else
      raise (Lex_error { line = !line; message = Printf.sprintf "unexpected character %C" c })
  done;
  List.rev !tokens

(* ---------------------------------------------------------------- parser *)

exception Parse_error of error

type op_spec = {
  op_name : string;
  mutable container : Container.t option;
  mutable capacity : Capacity.t option;
  mutable volume : float option; (* nanolitres; sugar for capacity *)
  mutable accessories : Accessory.t list;
  mutable duration : Operation.duration option;
  decl_line : int;
}

type state = {
  mutable tokens : lexed list;
  mutable assay_name : string option;
  mutable ops : op_spec list; (* reversed *)
  mutable deps : (string * string * int) list; (* reversed, with line *)
  mutable replicate : int option;
}

let fail line message = raise (Parse_error { line; message })

let peek st = match st.tokens with [] -> None | t :: _ -> Some t

let advance st =
  match st.tokens with
  | [] -> fail 0 "unexpected end of input"
  | t :: rest ->
    st.tokens <- rest;
    t

let expect st want describe =
  let t = advance st in
  if t.token <> want then fail t.line (Printf.sprintf "expected %s" describe)

let expect_ident st describe =
  let t = advance st in
  match t.token with
  | Ident s -> (s, t.line)
  | String_lit _ | Int_lit _ | Float_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
    fail t.line (Printf.sprintf "expected %s" describe)

let container_of_string line = function
  | "ring" -> Container.Ring
  | "chamber" -> Container.Chamber
  | s -> fail line (Printf.sprintf "unknown container %S (ring|chamber)" s)

let capacity_of_string line = function
  | "large" -> Capacity.Large
  | "medium" -> Capacity.Medium
  | "small" -> Capacity.Small
  | "tiny" -> Capacity.Tiny
  | s -> fail line (Printf.sprintf "unknown capacity %S (large|medium|small|tiny)" s)

let accessory_of_string line = function
  | "pump" -> Accessory.Pump
  | "heating-pad" -> Accessory.Heating_pad
  | "optical-system" -> Accessory.Optical_system
  | "sieve-valve" -> Accessory.Sieve_valve
  | "cell-trap" -> Accessory.Cell_trap
  | s ->
    fail line
      (Printf.sprintf
         "unknown accessory %S (pump|heating-pad|optical-system|sieve-valve|cell-trap)" s)

let parse_accessory_list st =
  let rec go acc =
    let name, line = expect_ident st "an accessory name" in
    let acc = accessory_of_string line name :: acc in
    match peek st with
    | Some { token = Comma; _ } ->
      ignore (advance st);
      go acc
    | Some _ | None -> List.rev acc
  in
  go []

let parse_duration st =
  let t = advance st in
  match t.token with
  | Int_lit d -> Operation.Fixed d
  | Ident "indeterminate" ->
    let kw, line = expect_ident st "'min'" in
    if kw <> "min" then fail line "expected 'min' after 'indeterminate'";
    let t2 = advance st in
    (match t2.token with
     | Int_lit d -> Operation.Indeterminate { min_minutes = d }
     | Ident _ | String_lit _ | Float_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
       fail t2.line "expected a minute count after 'min'")
  | Float_lit _ -> fail t.line "durations are whole minutes"
  | Ident _ | String_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
    fail t.line "expected a duration (minutes or 'indeterminate min N')"

let parse_op_body st spec =
  expect st Lbrace "'{'";
  let rec fields () =
    match peek st with
    | Some { token = Rbrace; _ } -> ignore (advance st)
    | Some { token = Ident field; line } ->
      ignore (advance st);
      expect st Equals "'='";
      (match field with
       | "container" ->
         let v, vline = expect_ident st "a container" in
         spec.container <- Some (container_of_string vline v)
       | "capacity" ->
         let v, vline = expect_ident st "a capacity" in
         spec.capacity <- Some (capacity_of_string vline v)
       | "accessories" -> spec.accessories <- parse_accessory_list st
       | "duration" -> spec.duration <- Some (parse_duration st)
       | "volume" -> begin
         let t = advance st in
         match t.token with
         | Float_lit v -> spec.volume <- Some v
         | Int_lit v -> spec.volume <- Some (float_of_int v)
         | Ident _ | String_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
           fail t.line "expected a volume in nanolitres"
       end
       | other -> fail line (Printf.sprintf "unknown field %S" other));
      fields ()
    | Some { line; _ } -> fail line "expected a field name or '}'"
    | None -> fail spec.decl_line "unterminated op block"
  in
  fields ()

let parse_deps_block st deps =
  expect st Lbrace "'{'";
  let rec chains () =
    match peek st with
    | Some { token = Rbrace; _ } -> ignore (advance st)
    | Some { token = Ident _; _ } ->
      let first, line = expect_ident st "an operation name" in
      let rec links prev =
        match peek st with
        | Some { token = Arrow; _ } ->
          ignore (advance st);
          let next, nline = expect_ident st "an operation name" in
          deps := (prev, next, nline) :: !deps;
          links next
        | Some _ | None -> ()
      in
      links first;
      ignore line;
      chains ()
    | Some { line; _ } -> fail line "expected an operation name or '}'"
    | None -> fail 0 "unterminated deps block"
  in
  chains ()

let parse source =
  try
    let st =
      {
        tokens = lex source;
        assay_name = None;
        ops = [];
        deps = [];
        replicate = None;
      }
    in
    let deps = ref [] in
    let rec toplevel () =
      match peek st with
      | None -> ()
      | Some { token = Ident "assay"; line } ->
        ignore (advance st);
        let t = advance st in
        (match t.token with
         | String_lit s | Ident s ->
           if st.assay_name <> None then fail line "duplicate assay declaration";
           st.assay_name <- Some s
         | Int_lit _ | Float_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
           fail t.line "expected an assay name");
        toplevel ()
      | Some { token = Ident "op"; _ } ->
        ignore (advance st);
        let op_name, decl_line = expect_ident st "an operation name" in
        if List.exists (fun s -> s.op_name = op_name) st.ops then
          fail decl_line (Printf.sprintf "duplicate operation %S" op_name);
        let spec =
          { op_name; container = None; capacity = None; volume = None;
            accessories = []; duration = None; decl_line }
        in
        parse_op_body st spec;
        if spec.duration = None then
          fail decl_line (Printf.sprintf "operation %S has no duration" op_name);
        st.ops <- spec :: st.ops;
        toplevel ()
      | Some { token = Ident "deps"; _ } ->
        ignore (advance st);
        parse_deps_block st deps;
        toplevel ()
      | Some { token = Ident "replicate"; line } ->
        ignore (advance st);
        let t = advance st in
        (match t.token with
         | Int_lit k ->
           if st.replicate <> None then fail line "duplicate replicate";
           if k < 1 then fail line "replicate count must be positive";
           st.replicate <- Some k
         | Ident _ | String_lit _ | Float_lit _ | Lbrace | Rbrace | Equals | Comma | Arrow ->
           fail t.line "expected a replicate count");
        toplevel ()
      | Some { token = Ident kw; line } -> fail line (Printf.sprintf "unknown keyword %S" kw)
      | Some { line; _ } -> fail line "expected a declaration"
    in
    toplevel ();
    let name = match st.assay_name with Some n -> n | None -> "unnamed" in
    let assay = Assay.create ~name in
    let specs = List.rev st.ops in
    if specs = [] then fail 1 "assay has no operations";
    let id_of = Hashtbl.create 16 in
    List.iter
      (fun spec ->
        let duration = match spec.duration with Some d -> d | None -> assert false in
        let capacity =
          match (spec.capacity, spec.volume) with
          | (Some _ as c), _ -> c (* explicit class wins; volume is sugar *)
          | None, Some v -> begin
            match Capacity.of_volume v with
            | Some c -> Some c
            | None ->
              fail spec.decl_line
                (Printf.sprintf "volume %g nl fits no capacity class (0.5-500)" v)
          end
          | None, None -> None
        in
        let id =
          try
            Assay.add_operation assay ?container:spec.container ?capacity
              ~accessories:spec.accessories ~duration spec.op_name
          with Invalid_argument msg -> fail spec.decl_line msg
        in
        Hashtbl.replace id_of spec.op_name id)
      specs;
    List.iter
      (fun (p, c, line) ->
        let resolve name =
          match Hashtbl.find_opt id_of name with
          | Some id -> id
          | None -> fail line (Printf.sprintf "unknown operation %S in deps" name)
        in
        let parent = resolve p and child = resolve c in
        try Assay.add_dependency assay ~parent ~child
        with Invalid_argument msg -> fail line msg)
      (List.rev !deps);
    let assay =
      match st.replicate with
      | Some k when k > 1 -> Assay.replicate assay ~copies:k
      | Some _ | None -> assay
    in
    Ok assay
  with
  | Lex_error e | Parse_error e -> Error e

let of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse content

(* ---------------------------------------------------------------- printer *)

let sanitise_ident name ~id =
  let buf = Buffer.create (String.length name + 4) in
  String.iter (fun c -> Buffer.add_char buf (if is_ident_char c then c else '_')) name;
  let base = Buffer.contents buf in
  let base = if base = "" || (base.[0] >= '0' && base.[0] <= '9') then "op_" ^ base else base in
  (* keywords and uniqueness are both handled by the id suffix *)
  Printf.sprintf "%s_%d" base id

let to_text assay =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "assay %S\n\n" (Assay.name assay));
  let ops = Assay.operations assay in
  let ident_of = Array.mapi (fun id (o : Operation.t) -> sanitise_ident o.Operation.name ~id) ops in
  Array.iteri
    (fun id (o : Operation.t) ->
      Buffer.add_string buf (Printf.sprintf "op %s {\n" ident_of.(id));
      (match o.Operation.container with
       | Some c -> Buffer.add_string buf (Printf.sprintf "  container   = %s\n" (Container.to_string c))
       | None -> ());
      (match o.Operation.capacity with
       | Some c -> Buffer.add_string buf (Printf.sprintf "  capacity    = %s\n" (Capacity.to_string c))
       | None -> ());
      (if not (Accessory.Set.is_empty o.Operation.accessories) then
         Buffer.add_string buf
           (Printf.sprintf "  accessories = %s\n"
              (String.concat ", "
                 (List.map Accessory.to_string (Accessory.Set.elements o.Operation.accessories)))));
      (match o.Operation.duration with
       | Operation.Fixed d -> Buffer.add_string buf (Printf.sprintf "  duration    = %d\n" d)
       | Operation.Indeterminate { min_minutes } ->
         Buffer.add_string buf (Printf.sprintf "  duration    = indeterminate min %d\n" min_minutes));
      Buffer.add_string buf "}\n")
    ops;
  Buffer.add_string buf "\ndeps {\n";
  Array.iteri
    (fun id (_ : Operation.t) ->
      List.iter
        (fun child ->
          Buffer.add_string buf (Printf.sprintf "  %s -> %s\n" ident_of.(id) ident_of.(child)))
        (Assay.children assay id))
    ops;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
