type reg = int

type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Lt | Eq

type expr = Int of int | Reg of reg | Bin of binop * expr * expr

type stmt =
  | Set of reg * expr
  | Load of reg * string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list

type taint = Public | Secret

type program = {
  p_name : string;
  p_arrays : (string * int) list;
  p_params : (reg * string * taint) list;
  p_body : stmt list;
}

let rec expr_regs = function
  | Int _ -> []
  | Reg r -> [ r ]
  | Bin (_, a, b) -> expr_regs a @ expr_regs b

let rec max_reg_stmt s =
  match s with
  | Set (r, e) -> List.fold_left max r (expr_regs e)
  | Load (r, _, e) -> List.fold_left max r (expr_regs e)
  | Store (_, i, v) -> List.fold_left max (-1) (expr_regs i @ expr_regs v)
  | If (c, a, b) ->
      List.fold_left max (-1) (expr_regs c @ List.map max_reg_stmt (a @ b))
  | While (c, body) ->
      List.fold_left max (-1) (expr_regs c @ List.map max_reg_stmt body)

let n_regs p =
  let m =
    List.fold_left max (-1)
      (List.map (fun (r, _, _) -> r) p.p_params @ List.map max_reg_stmt p.p_body)
  in
  m + 1

let validate p =
  let arrays = List.map fst p.p_arrays in
  let defined = ref (List.map (fun (r, _, _) -> r) p.p_params) in
  let use_arr name =
    if not (List.mem name arrays) then
      invalid_arg
        (Printf.sprintf "Ct_ir: program %s references undeclared array %s"
           p.p_name name)
  in
  let use_regs e =
    List.iter
      (fun r ->
        if not (List.mem r !defined) then
          invalid_arg
            (Printf.sprintf "Ct_ir: program %s reads r%d before assignment"
               p.p_name r))
      (expr_regs e)
  in
  let rec go s =
    match s with
    | Set (r, e) ->
        use_regs e;
        defined := r :: !defined
    | Load (r, a, i) ->
        use_arr a;
        use_regs i;
        defined := r :: !defined
    | Store (a, i, v) ->
        use_arr a;
        use_regs i;
        use_regs v
    | If (c, t, e) ->
        use_regs c;
        List.iter go t;
        List.iter go e
    | While (c, body) ->
        use_regs c;
        List.iter go body
  in
  List.iter go p.p_body

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Eq -> "=="

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Reg r -> Format.fprintf ppf "r%d" r
  | Bin (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b

let pp_stmt ppf = function
  | Set (r, e) -> Format.fprintf ppf "r%d := %a" r pp_expr e
  | Load (r, a, i) -> Format.fprintf ppf "r%d := %s[%a]" r a pp_expr i
  | Store (a, i, v) -> Format.fprintf ppf "%s[%a] := %a" a pp_expr i pp_expr v
  | If (c, _, _) -> Format.fprintf ppf "if %a" pp_expr c
  | While (c, _) -> Format.fprintf ppf "while %a" pp_expr c

(* ------------------------------------------------------------------ *)
(* Dynamic execution                                                   *)

type event = Ev_load of int | Ev_store of int | Ev_branch of int * bool

type trace = event list

type exec_result = { x_trace : trace; x_cycles : int; x_regs : int array }

let word = 8
let data_base = 0x1000_0000
let code_base = 0x2000_0000
let max_steps = 1_000_000

(* Disjoint page-aligned buffer per array, packed upward from
   [data_base] in declaration order.  [arrays_at] pins individual
   arrays to explicit page-aligned bases (the small-scope checker uses
   this to control page colours); unpinned arrays get exactly the
   default packing, so an empty [arrays_at] reproduces the historical
   layout bit-for-bit. *)
let array_layout ?(arrays_at = []) p =
  let page = Tp_hw.Defs.page_size in
  let next = ref data_base in
  List.map
    (fun (name, len) ->
      match List.assoc_opt name arrays_at with
      | Some base ->
          if base land (page - 1) <> 0 then
            invalid_arg
              (Printf.sprintf
                 "Ct_ir.array_layout: %s: base %#x for %s not page-aligned"
                 p.p_name base name);
          (name, base, len)
      | None ->
          let base = !next in
          let bytes = (len * word) + page - 1 in
          next := !next + (bytes / page * page) + page;
          (name, base, len))
    p.p_arrays

type astmt =
  | ASet of reg * expr
  | ALoad of reg * string * expr
  | AStore of string * expr * expr
  | AIf of int * expr * astmt list * astmt list
  | AWhile of int * expr * astmt list

(* Stable site ids: preorder position of every If/While. *)
let annotate body =
  let n = ref 0 in
  let rec go s =
    match s with
    | Set (r, e) -> ASet (r, e)
    | Load (r, a, i) -> ALoad (r, a, i)
    | Store (a, i, v) -> AStore (a, i, v)
    | If (c, t, e) ->
        let id = !n in
        incr n;
        let t = List.map go t in
        let e = List.map go e in
        AIf (id, c, t, e)
    | While (c, b) ->
        let id = !n in
        incr n;
        AWhile (id, c, List.map go b)
  in
  List.map go body

let execute ?arrays_at ?(code_at = code_base) m ~core p ~inputs =
  validate p;
  let regs = Array.make (max 1 (n_regs p)) 0 in
  List.iter
    (fun (r, name, _) ->
      match List.assoc_opt r inputs with
      | Some v -> regs.(r) <- v
      | None ->
          invalid_arg
            (Printf.sprintf "Ct_ir.execute: %s: no input for parameter %s (r%d)"
               p.p_name name r))
    p.p_params;
  let bases = Hashtbl.create 8 in
  List.iter
    (fun (name, base, len) -> Hashtbl.replace bases name (base, len))
    (array_layout ?arrays_at p);
  let body = annotate p.p_body in
  let events = ref [] in
  let steps = ref 0 in
  let step () =
    incr steps;
    if !steps > max_steps then
      invalid_arg
        (Printf.sprintf "Ct_ir.execute: %s: runaway loop (>%d steps)" p.p_name
           max_steps)
  in
  let t0 = Tp_hw.Machine.cycles m ~core in
  let rec eval e =
    match e with
    | Int n -> n
    | Reg r -> regs.(r)
    | Bin (op, a, b) -> (
        let va = eval a and vb = eval b in
        (* A couple of ALU cycles per operation keeps relative timing
           sane; constant per op, so it never depends on operands. *)
        Tp_hw.Machine.add_cycles m ~core 1;
        match op with
        | Add -> va + vb
        | Sub -> va - vb
        | Mul -> va * vb
        | Div -> va / vb
        | Mod -> va mod vb
        | And -> va land vb
        | Or -> va lor vb
        | Xor -> va lxor vb
        | Shl -> va lsl vb
        | Shr -> va asr vb
        | Lt -> if va < vb then 1 else 0
        | Eq -> if va = vb then 1 else 0)
  in
  let addr name idx =
    let base, len =
      try Hashtbl.find bases name with Not_found -> assert false
    in
    if idx < 0 || idx >= len then
      invalid_arg
        (Printf.sprintf "Ct_ir.execute: %s: %s[%d] out of bounds (len %d)"
           p.p_name name idx len)
    else base + (idx * word)
  in
  let mem_access a kind =
    ignore
      (Tp_hw.Machine.access m ~core ~asid:0 ~global:false
         ~llc_ways:Tp_hw.Machine.all_ways ~pt_root:Tp_hw.Machine.no_walk
         ~pt_leaf:Tp_hw.Machine.no_walk ~vaddr:a ~paddr:a ~kind)
  in
  let branch site taken =
    let va = code_at + (site * 64) in
    ignore (Tp_hw.Machine.cond_branch m ~core ~asid:0 ~vaddr:va ~paddr:va ~taken);
    events := Ev_branch (site, taken) :: !events
  in
  let rec exec s =
    step ();
    match s with
    | ASet (r, e) -> regs.(r) <- eval e
    | ALoad (r, name, i) ->
        let a = addr name (eval i) in
        mem_access a Tp_hw.Defs.Read;
        events := Ev_load a :: !events;
        regs.(r) <- 0 (* array contents are not modelled, only addresses *)
    | AStore (name, i, v) ->
        let a = addr name (eval i) in
        ignore (eval v);
        mem_access a Tp_hw.Defs.Write;
        events := Ev_store a :: !events
    | AIf (site, c, t, e) ->
        let taken = eval c <> 0 in
        branch site taken;
        List.iter exec (if taken then t else e)
    | AWhile (site, c, loop_body) as w ->
        let taken = eval c <> 0 in
        branch site taken;
        if taken then begin
          List.iter exec loop_body;
          exec w
        end
  in
  List.iter exec body;
  {
    x_trace = List.rev !events;
    x_cycles = Tp_hw.Machine.cycles m ~core - t0;
    x_regs = regs;
  }

let event_str = function
  | Ev_load a -> Printf.sprintf "load %#x" a
  | Ev_store a -> Printf.sprintf "store %#x" a
  | Ev_branch (s, t) -> Printf.sprintf "branch@%d %staken" s (if t then "" else "not-")

let diff_traces a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
        if x = y then go (i + 1) a' b'
        else Some (i, Printf.sprintf "%s vs %s" (event_str x) (event_str y))
    | x :: _, [] -> Some (i, Printf.sprintf "%s vs end-of-trace" (event_str x))
    | [], y :: _ -> Some (i, Printf.sprintf "end-of-trace vs %s" (event_str y))
  in
  go 0 a b
