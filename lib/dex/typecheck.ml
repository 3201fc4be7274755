open Ast

type texpr = { e : texpr_desc; t : Ast.typ }

and texpr_desc =
  | Tint_lit of int
  | Tfloat_lit of float
  | Tbool_lit of bool
  | Tnull
  | Tlocal of string
  | Tthis
  | Tbinop of Ast.binop * texpr * texpr
  | Tunop of Ast.unop * texpr
  | Tstatic_call of string * string * texpr list
  | Tvirtual_call of texpr * string * texpr list
  | Tnative_call of Bytecode.native * texpr list
  | Tnew of string * texpr list
  | Tnew_array of Ast.typ * texpr
  | Tindex of texpr * texpr
  | Tfield of texpr * string
  | Tstatic_field of string * string
  | Tlen of texpr
  | Tcast of Ast.typ * texpr

type tlvalue =
  | TLlocal of string
  | TLindex of texpr * texpr
  | TLfield of texpr * string
  | TLstatic of string * string

type tstmt =
  | TSdecl of Ast.typ * string * texpr option
  | TSassign of tlvalue * texpr
  | TSif of texpr * tstmt list * tstmt list
  | TSwhile of texpr * tstmt list
  | TSreturn of texpr option
  | TSexpr of texpr
  | TSthrow of texpr
  | TStry of tstmt list * string * tstmt list
  | TSbreak
  | TScontinue

type tmethod = {
  tm_name : string;
  tm_class : string;
  tm_static : bool;
  tm_ret : Ast.typ;
  tm_params : (Ast.typ * string) list;
  tm_body : tstmt list;
}

type tclass = {
  tc_name : string;
  tc_super : string option;
  tc_instance_fields : (string * Ast.typ) list;
  tc_static_fields : (string * Ast.typ * Bytecode.const) list;
  tc_methods : tmethod list;
}

type tprogram = tclass list

exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Symbol tables built from the raw AST                                *)
(* ------------------------------------------------------------------ *)

type class_tbl = (string, class_def) Hashtbl.t

let build_class_tbl (prog : program) : class_tbl =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
       if Hashtbl.mem tbl c.c_name then err "duplicate class %s" c.c_name;
       Hashtbl.add tbl c.c_name c)
    prog;
  tbl

let lookup_class tbl name =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None -> err "unknown class %s" name

(* Superclass chain from [name] to the root, cycle-checked. *)
let ancestry tbl name =
  let rec loop acc n =
    if List.mem n acc then err "inheritance cycle through %s" n;
    let c = lookup_class tbl n in
    match c.c_super with
    | None -> List.rev (n :: acc)
    | Some s -> loop (n :: acc) s
  in
  loop [] name

let rec is_subclass tbl sub super =
  sub = super
  ||
  match (lookup_class tbl sub).c_super with
  | None -> false
  | Some s -> is_subclass tbl s super

(* Instance fields in layout order: inherited first. *)
let instance_fields tbl name =
  let chain = List.rev (ancestry tbl name) in
  List.concat_map
    (fun cn ->
       let c = lookup_class tbl cn in
       List.filter_map
         (fun f -> if f.f_static then None else Some (f.f_name, f.f_typ))
         c.c_fields)
    chain

let find_instance_field tbl cls fname =
  let rec loop cn =
    let c = lookup_class tbl cn in
    match List.find_opt (fun f -> not f.f_static && f.f_name = fname) c.c_fields with
    | Some f -> Some f.f_typ
    | None -> (match c.c_super with None -> None | Some s -> loop s)
  in
  loop cls

let find_static_field tbl cls fname =
  if not (Hashtbl.mem tbl cls) then None
  else begin
    let rec loop cn =
      let c = lookup_class tbl cn in
      match List.find_opt (fun f -> f.f_static && f.f_name = fname) c.c_fields with
      | Some f -> Some (cn, f.f_typ)
      | None -> (match c.c_super with None -> None | Some s -> loop s)
    in
    loop cls
  end

let find_method tbl cls mname =
  if not (Hashtbl.mem tbl cls) then None
  else begin
    let rec loop cn =
      let c = lookup_class tbl cn in
      match List.find_opt (fun m -> m.m_name = mname) c.c_methods with
      | Some m -> Some (cn, m)
      | None -> (match c.c_super with None -> None | Some s -> loop s)
    in
    loop cls
  end

(* ------------------------------------------------------------------ *)
(* Native (Math/Sys) resolution                                        *)
(* ------------------------------------------------------------------ *)

let is_native_class c = c = "Math" || c = "Sys"

(* Resolve an overloaded native by the types of its arguments. *)
let resolve_native cls name (arg_typs : typ list) : (Bytecode.native * typ list * typ) option =
  let f = Tfloat and i = Tint in
  match cls, name, arg_typs with
  | "Math", "sqrt", [ _ ] -> Some (Nsqrt, [ f ], f)
  | "Math", "sin", [ _ ] -> Some (Nsin, [ f ], f)
  | "Math", "cos", [ _ ] -> Some (Ncos, [ f ], f)
  | "Math", "floor", [ _ ] -> Some (Nfloor, [ f ], f)
  | "Math", "exp", [ _ ] -> Some (Nexp, [ f ], f)
  | "Math", "log", [ _ ] -> Some (Nlog, [ f ], f)
  | "Math", "pow", [ _; _ ] -> Some (Npow, [ f; f ], f)
  | "Math", "abs", [ Tint ] -> Some (Nabs_i, [ i ], i)
  | "Math", "abs", [ _ ] -> Some (Nabs_f, [ f ], f)
  | "Math", "min", [ Tint; Tint ] -> Some (Nmin_i, [ i; i ], i)
  | "Math", "min", [ _; _ ] -> Some (Nmin_f, [ f; f ], f)
  | "Math", "max", [ Tint; Tint ] -> Some (Nmax_i, [ i; i ], i)
  | "Math", "max", [ _; _ ] -> Some (Nmax_f, [ f; f ], f)
  | "Sys", "print", [ Tint ] -> Some (Nprint_i, [ i ], Tvoid)
  | "Sys", "print", [ _ ] -> Some (Nprint_f, [ f ], Tvoid)
  | "Sys", "draw", [ _; _; _ ] -> Some (Ndraw, [ i; i; i ], Tvoid)
  | "Sys", "rand", [ _ ] -> Some (Nrand, [ i ], i)   (* rand(bound) *)
  | "Sys", "clock", [] -> Some (Nclock, [], i)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expression checking                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = {
  tbl : class_tbl;
  cur_class : string;
  cur_static : bool;
  ret_typ : typ;
  mutable locals : (string * typ) list;  (* innermost scope first *)
  in_loop : bool;
}

let rec valid_typ tbl = function
  | Tint | Tfloat | Tbool | Tvoid -> true
  | Tarray t -> valid_typ tbl t
  | Tobj c -> Hashtbl.mem tbl c

let typ_eq = ( = )

(* Implicit coercions: int -> float, and null -> any reference type. *)
let coerce ctx (e : texpr) (want : typ) : texpr =
  if typ_eq e.t want then e
  else
    match e.t, want with
    | Tint, Tfloat -> { e = Tcast (Tfloat, e); t = Tfloat }
    | Tobj "null", (Tobj _ | Tarray _) -> { e = e.e; t = want }
    | Tobj sub, Tobj super when is_subclass ctx.tbl sub super -> { e = e.e; t = want }
    | _ ->
      err "type mismatch: expected %s, got %s" (string_of_typ want) (string_of_typ e.t)

let lookup_local ctx name = List.assoc_opt name ctx.locals

let rec check_expr (ctx : ctx) (expr : expr) : texpr =
  match expr with
  | Eint k -> { e = Tint_lit k; t = Tint }
  | Efloat f -> { e = Tfloat_lit f; t = Tfloat }
  | Ebool b -> { e = Tbool_lit b; t = Tbool }
  | Enull -> { e = Tnull; t = Tobj "null" }
  | Ethis ->
    if ctx.cur_static then err "this used in static method %s" ctx.cur_class;
    { e = Tthis; t = Tobj ctx.cur_class }
  | Evar name ->
    (match lookup_local ctx name with
     | Some t -> { e = Tlocal name; t }
     | None ->
       (* implicit this.field, then static field of the current class *)
       if (not ctx.cur_static) && find_instance_field ctx.tbl ctx.cur_class name <> None
       then check_expr ctx (Efield (Ethis, name))
       else begin
         match find_static_field ctx.tbl ctx.cur_class name with
         | Some (owner, t) -> { e = Tstatic_field (owner, name); t }
         | None -> err "unbound variable %s in %s" name ctx.cur_class
       end)
  | Ebinop (op, a, b) -> check_binop ctx op a b
  | Eunop (Neg, a) ->
    let ta = check_expr ctx a in
    (match ta.t with
     | Tint | Tfloat -> { e = Tunop (Neg, ta); t = ta.t }
     | _ -> err "negation of non-numeric value")
  | Eunop (Not, a) ->
    let ta = check_expr ctx a in
    if ta.t <> Tbool then err "! applied to non-bool";
    { e = Tunop (Not, ta); t = Tbool }
  | Estatic_call (cls, name, args) -> check_call ctx cls name args
  | Evirtual_call (recv, name, args) ->
    (* [recv] may actually be a class name: [Foo.bar()] parses as a virtual
       call on [Evar "Foo"] when Foo is not a local. *)
    (match recv with
     | Evar v when lookup_local ctx v = None
                && (is_native_class v || Hashtbl.mem ctx.tbl v) ->
       check_call ctx v name args
     | _ ->
       let trecv = check_expr ctx recv in
       (match trecv.t with
        | Tobj cls ->
          (match find_method ctx.tbl cls name with
           | Some (_, m) when not m.m_static ->
             let targs = check_args ctx (List.map fst m.m_params) args in
             { e = Tvirtual_call (trecv, name, targs); t = m.m_ret }
           | Some _ -> err "%s.%s is static, called virtually" cls name
           | None -> err "no method %s in class %s" name cls)
        | _ -> err "method call on non-object (%s)" (string_of_typ trecv.t)))
  | Enew (cls, args) ->
    let _ = lookup_class ctx.tbl cls in
    (match find_method ctx.tbl cls "init" with
     | Some (_, m) when not m.m_static ->
       let targs = check_args ctx (List.map fst m.m_params) args in
       { e = Tnew (cls, targs); t = Tobj cls }
     | Some _ -> err "constructor init of %s must not be static" cls
     | None ->
       if args <> [] then err "class %s has no constructor" cls;
       { e = Tnew (cls, []); t = Tobj cls })
  | Enew_array (elem, len) ->
    if not (valid_typ ctx.tbl elem) then err "bad array element type";
    let tlen = coerce ctx (check_expr ctx len) Tint in
    { e = Tnew_array (elem, tlen); t = Tarray elem }
  | Eindex (arr, idx) ->
    let tarr = check_expr ctx arr in
    (match tarr.t with
     | Tarray elem ->
       let tidx = coerce ctx (check_expr ctx idx) Tint in
       { e = Tindex (tarr, tidx); t = elem }
     | _ -> err "indexing a non-array (%s)" (string_of_typ tarr.t))
  | Efield (obj, fname) ->
    (* [Evar c .f] where c is a class name = static field access. *)
    (match obj with
     | Evar v when lookup_local ctx v = None && Hashtbl.mem ctx.tbl v ->
       (match find_static_field ctx.tbl v fname with
        | Some (owner, t) -> { e = Tstatic_field (owner, fname); t }
        | None -> err "no static field %s in class %s" fname v)
     | _ ->
       let tobj = check_expr ctx obj in
       (match tobj.t with
        | Tobj cls ->
          (match find_instance_field ctx.tbl cls fname with
           | Some t -> { e = Tfield (tobj, fname); t }
           | None -> err "no field %s in class %s" fname cls)
        | _ -> err "field access on non-object (%s)" (string_of_typ tobj.t)))
  | Estatic_field (cls, fname) ->
    (match find_static_field ctx.tbl cls fname with
     | Some (owner, t) -> { e = Tstatic_field (owner, fname); t }
     | None -> err "no static field %s in class %s" fname cls)
  | Elen arr ->
    let tarr = check_expr ctx arr in
    (match tarr.t with
     | Tarray _ -> { e = Tlen tarr; t = Tint }
     | _ -> err ".length on non-array")
  | Ecast (t, e) ->
    let te = check_expr ctx e in
    (match t, te.t with
     | Tint, Tfloat | Tfloat, Tint -> { e = Tcast (t, te); t }
     | Tint, Tint | Tfloat, Tfloat -> te
     | _ -> err "unsupported cast to %s" (string_of_typ t))

and check_binop ctx op a b =
  let ta = check_expr ctx a and tb = check_expr ctx b in
  let numeric () =
    match ta.t, tb.t with
    | Tint, Tint -> (ta, tb, Tint)
    | (Tfloat | Tint), (Tfloat | Tint) ->
      (coerce ctx ta Tfloat, coerce ctx tb Tfloat, Tfloat)
    | _ ->
      err "numeric operator %s on %s and %s" (string_of_binop op)
        (string_of_typ ta.t) (string_of_typ tb.t)
  in
  match op with
  | Add | Sub | Mul | Div | Rem ->
    let a, b, t = numeric () in
    { e = Tbinop (op, a, b); t }
  | Band | Bor | Bxor | Shl | Shr ->
    if ta.t <> Tint || tb.t <> Tint then err "bitwise operator on non-int";
    { e = Tbinop (op, ta, tb); t = Tint }
  | Lt | Le | Gt | Ge ->
    let a, b, _ = numeric () in
    { e = Tbinop (op, a, b); t = Tbool }
  | Eq | Ne ->
    (match ta.t, tb.t with
     | Tint, Tint | Tbool, Tbool -> { e = Tbinop (op, ta, tb); t = Tbool }
     | (Tfloat | Tint), (Tfloat | Tint) ->
       { e = Tbinop (op, coerce ctx ta Tfloat, coerce ctx tb Tfloat); t = Tbool }
     | (Tobj _ | Tarray _), (Tobj _ | Tarray _) ->
       { e = Tbinop (op, ta, tb); t = Tbool }
     | _ -> err "equality between %s and %s" (string_of_typ ta.t) (string_of_typ tb.t))
  | Land | Lor ->
    if ta.t <> Tbool || tb.t <> Tbool then err "&&/|| on non-bool";
    { e = Tbinop (op, ta, tb); t = Tbool }

and check_args ctx (param_typs : typ list) (args : expr list) : texpr list =
  if List.length param_typs <> List.length args then
    err "wrong number of arguments (%d expected, %d given)"
      (List.length param_typs) (List.length args);
  List.map2 (fun pt a -> coerce ctx (check_expr ctx a) pt) param_typs args

(* Calls of the form Class.m(args) or unqualified m(args) (cls = "").
   [x.m(args)] on a local variable also parses into this shape, so a leading
   identifier that names a local resolves to a virtual call. *)
and check_call ctx cls name args =
  match lookup_local ctx cls with
  | Some _ -> check_expr ctx (Evirtual_call (Evar cls, name, args))
  | None -> check_call_static ctx cls name args

and check_call_static ctx cls name args =
  if is_native_class cls then begin
    let targs = List.map (check_expr ctx) args in
    match resolve_native cls name (List.map (fun a -> a.t) targs) with
    | Some (native, want, ret) ->
      let targs = List.map2 (fun a w -> coerce ctx a w) targs want in
      { e = Tnative_call (native, targs); t = ret }
    | None -> err "unknown native %s.%s/%d" cls name (List.length args)
  end
  else begin
    let owner = if cls = "" then ctx.cur_class else cls in
    match find_method ctx.tbl owner name with
    | Some (defining, m) ->
      let targs = check_args ctx (List.map fst m.m_params) args in
      if m.m_static then
        { e = Tstatic_call (defining, name, targs); t = m.m_ret }
      else if cls = "" then begin
        if ctx.cur_static then
          err "instance method %s called from static context" name;
        { e = Tvirtual_call ({ e = Tthis; t = Tobj ctx.cur_class }, name, targs);
          t = m.m_ret }
      end
      else err "instance method %s.%s called statically" cls name
    | None -> err "no method %s in class %s" name owner
  end

(* ------------------------------------------------------------------ *)
(* Statement checking                                                  *)
(* ------------------------------------------------------------------ *)

let rec check_stmts ctx stmts = List.map (check_stmt ctx) stmts

and check_block ctx stmts =
  let saved = ctx.locals in
  let result = check_stmts ctx stmts in
  ctx.locals <- saved;
  result

and check_stmt ctx = function
  | Sdecl (t, name, init) ->
    if not (valid_typ ctx.tbl t) || t = Tvoid then
      err "bad type for variable %s" name;
    if List.mem_assoc name ctx.locals then err "shadowed variable %s" name;
    let tinit = Option.map (fun e -> coerce ctx (check_expr ctx e) t) init in
    ctx.locals <- (name, t) :: ctx.locals;
    TSdecl (t, name, tinit)
  | Sassign (lv, rhs) ->
    let tlv, t = check_lvalue ctx lv in
    TSassign (tlv, coerce ctx (check_expr ctx rhs) t)
  | Sif (c, th, el) ->
    let tc = check_expr ctx c in
    if tc.t <> Tbool then err "if condition is not bool";
    TSif (tc, check_block ctx th, check_block ctx el)
  | Swhile (c, body) ->
    let tc = check_expr ctx c in
    if tc.t <> Tbool then err "while condition is not bool";
    TSwhile (tc, check_block { ctx with in_loop = true; locals = ctx.locals } body)
  | Sfor (init, cond, step, body) ->
    (* Desugar to { init; while (cond) { body; step } }.  [continue] inside a
       for body must still run the step, so the step is appended after a
       rewrite of continue into a step+continue pair at lowering time; here
       we keep the desugared shape simple: MiniDex forbids [continue] inside
       [for] bodies (the checker rejects it), apps use while when needed. *)
    let saved = ctx.locals in
    let tinit = Option.map (check_stmt ctx) init in
    let tcond = check_expr ctx cond in
    if tcond.t <> Tbool then err "for condition is not bool";
    let ctx_loop = { ctx with in_loop = true; locals = ctx.locals } in
    let tbody = check_block ctx_loop body in
    let reject_continue () =
      let rec scan = function
        | TScontinue -> err "continue inside for is not supported; use while"
        | TSif (_, a, b) -> List.iter scan a; List.iter scan b
        | TStry (a, _, b) -> List.iter scan a; List.iter scan b
        | TSwhile _ (* its continues bind to the inner loop *)
        | TSdecl _ | TSassign _ | TSreturn _ | TSexpr _ | TSthrow _
        | TSbreak -> ()
      in
      List.iter scan tbody
    in
    reject_continue ();
    let tstep = Option.map (check_stmt ctx_loop) step in
    ctx.locals <- saved;
    let while_body = tbody @ Option.to_list tstep in
    let desugared = TSwhile (tcond, while_body) in
    (match tinit with
     | None -> desugared
     | Some i ->
       (* wrap in an if(true) block to scope the induction variable *)
       TSif ({ e = Tbool_lit true; t = Tbool }, [ i; desugared ], []))
  | Sreturn None ->
    if ctx.ret_typ <> Tvoid then err "missing return value";
    TSreturn None
  | Sreturn (Some e) ->
    if ctx.ret_typ = Tvoid then err "return with value in void method";
    TSreturn (Some (coerce ctx (check_expr ctx e) ctx.ret_typ))
  | Sexpr e -> TSexpr (check_expr ctx e)
  | Sblock stmts ->
    TSif ({ e = Tbool_lit true; t = Tbool }, check_block ctx stmts, [])
  | Sthrow e ->
    let te = check_expr ctx e in
    if te.t <> Tint then err "throw requires an int error code";
    TSthrow te
  | Stry (body, name, handler) ->
    let tbody = check_block ctx body in
    let saved = ctx.locals in
    ctx.locals <- (name, Tint) :: ctx.locals;
    let thandler = check_stmts ctx handler in
    ctx.locals <- saved;
    TStry (tbody, name, thandler)
  | Sbreak ->
    if not ctx.in_loop then err "break outside loop";
    TSbreak
  | Scontinue ->
    if not ctx.in_loop then err "continue outside loop";
    TScontinue

and check_lvalue ctx = function
  | Lvar name ->
    (match lookup_local ctx name with
     | Some t -> (TLlocal name, t)
     | None ->
       if (not ctx.cur_static)
       && find_instance_field ctx.tbl ctx.cur_class name <> None
       then begin
         let t = Option.get (find_instance_field ctx.tbl ctx.cur_class name) in
         (TLfield ({ e = Tthis; t = Tobj ctx.cur_class }, name), t)
       end
       else begin
         match find_static_field ctx.tbl ctx.cur_class name with
         | Some (owner, t) -> (TLstatic (owner, name), t)
         | None -> err "unbound assignment target %s" name
       end)
  | Lindex (arr, idx) ->
    let te = check_expr ctx (Eindex (arr, idx)) in
    (match te.e with
     | Tindex (a, i) -> (TLindex (a, i), te.t)
     | _ -> assert false)
  | Lfield (obj, f) ->
    let te = check_expr ctx (Efield (obj, f)) in
    (match te.e with
     | Tfield (o, f) -> (TLfield (o, f), te.t)
     | Tstatic_field (c, f) -> (TLstatic (c, f), te.t)
     | _ -> assert false)
  | Lstatic (c, f) ->
    let te = check_expr ctx (Estatic_field (c, f)) in
    (match te.e with
     | Tstatic_field (c, f) -> (TLstatic (c, f), te.t)
     | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Program checking                                                    *)
(* ------------------------------------------------------------------ *)

let const_of_init cls fname typ = function
  | None ->
    (match typ with
     | Tint -> Bytecode.Cint 0
     | Tfloat -> Bytecode.Cfloat 0.0
     | Tbool -> Bytecode.Cbool false
     | Tarray _ | Tobj _ -> Bytecode.Cnull
     | Tvoid -> err "void field %s.%s" cls fname)
  | Some (Eint k) ->
    (match typ with
     | Tint -> Bytecode.Cint k
     | Tfloat -> Bytecode.Cfloat (float_of_int k)
     | _ -> err "bad initializer for %s.%s" cls fname)
  | Some (Efloat f) when typ = Tfloat -> Bytecode.Cfloat f
  | Some (Eunop (Neg, Eint k)) when typ = Tint -> Bytecode.Cint (-k)
  | Some (Eunop (Neg, Efloat f)) when typ = Tfloat -> Bytecode.Cfloat (-.f)
  | Some (Ebool b) when typ = Tbool -> Bytecode.Cbool b
  | Some Enull ->
    (match typ with
     | Tarray _ | Tobj _ -> Bytecode.Cnull
     | _ -> err "null initializer for scalar %s.%s" cls fname)
  | Some _ -> err "static initializer of %s.%s must be a literal" cls fname

let check_method tbl (c : class_def) (m : method_def) : tmethod =
  if is_native_class c.c_name then err "class name %s is reserved" c.c_name;
  List.iter
    (fun (t, p) ->
       if not (valid_typ tbl t) || t = Tvoid then
         err "bad parameter %s in %s.%s" p c.c_name m.m_name)
    m.m_params;
  if not (valid_typ tbl m.m_ret) then
    err "bad return type in %s.%s" c.c_name m.m_name;
  let ctx = {
    tbl;
    cur_class = c.c_name;
    cur_static = m.m_static;
    ret_typ = m.m_ret;
    locals = List.map (fun (t, p) -> (p, t)) m.m_params;
    in_loop = false;
  } in
  let body = check_stmts ctx m.m_body in
  { tm_name = m.m_name; tm_class = c.c_name; tm_static = m.m_static;
    tm_ret = m.m_ret; tm_params = m.m_params; tm_body = body }

(* Overriding methods must preserve the signature (vtable slots are shared). *)
let check_override tbl (c : class_def) (m : method_def) =
  match c.c_super with
  | None -> ()
  | Some super ->
    (match find_method tbl super m.m_name with
     | Some (_, parent) when not m.m_static && not parent.m_static ->
       if parent.m_ret <> m.m_ret
       || List.map fst parent.m_params <> List.map fst m.m_params then
         err "override %s.%s changes signature" c.c_name m.m_name
     | Some (_, parent) when m.m_static <> parent.m_static ->
       err "%s.%s mixes static/virtual with inherited method" c.c_name m.m_name
     | _ -> ())

let check (prog : program) : tprogram =
  let tbl = build_class_tbl prog in
  List.iter (fun c -> ignore (ancestry tbl c.c_name)) prog;
  List.map
    (fun c ->
       List.iter (check_override tbl c) c.c_methods;
       let methods = List.map (check_method tbl c) c.c_methods in
       let statics =
         List.filter_map
           (fun f ->
              if f.f_static then
                Some (f.f_name, f.f_typ, const_of_init c.c_name f.f_name f.f_typ f.f_init)
              else begin
                if f.f_init <> None then
                  err "instance field %s.%s cannot have an initializer"
                    c.c_name f.f_name;
                None
              end)
           c.c_fields
       in
       { tc_name = c.c_name; tc_super = c.c_super;
         tc_instance_fields = instance_fields tbl c.c_name;
         tc_static_fields = statics; tc_methods = methods })
    prog

let method_sig (prog : tprogram) cls name =
  let rec find cls =
    match List.find_opt (fun c -> c.tc_name = cls) prog with
    | None -> None
    | Some c ->
      (match List.find_opt (fun m -> m.tm_name = name) c.tc_methods with
       | Some m -> Some (m.tm_static, m.tm_ret, List.map fst m.tm_params)
       | None ->
         (match c.tc_super with Some s -> find s | None -> None))
  in
  find cls
