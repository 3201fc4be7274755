module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Mem = Repro_os.Mem
open Value

let binop_cost (c : Cost.model) op (a : Value.t) =
  let is_float = match a with Vfloat _ -> true | Vint _ | Vbool _ | Vref _ -> false in
  match op with
  | Ast.Add | Ast.Sub -> if is_float then c.Cost.float_alu else c.Cost.int_alu
  | Ast.Mul -> if is_float then c.Cost.float_mul else c.Cost.int_mul
  | Ast.Div | Ast.Rem -> if is_float then c.Cost.float_div else c.Cost.int_div
  | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr -> c.Cost.int_alu
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
    if is_float then c.Cost.float_alu else c.Cost.int_alu
  | Ast.Land | Ast.Lor -> c.Cost.int_alu

let eval_binop op a b =
  match op, a, b with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | Ast.Div, Vint x, Vint y ->
    if y = 0 then raise (Exec_ctx.App_exception Exec_ctx.exc_div_by_zero)
    else Vint (x / y)
  | Ast.Rem, Vint x, Vint y ->
    if y = 0 then raise (Exec_ctx.App_exception Exec_ctx.exc_div_by_zero)
    else Vint (x mod y)
  | Ast.Add, Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Ast.Sub, Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Ast.Mul, Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Ast.Div, Vfloat x, Vfloat y -> Vfloat (x /. y)
  | Ast.Rem, Vfloat x, Vfloat y -> Vfloat (Float.rem x y)
  | Ast.Band, Vint x, Vint y -> Vint (x land y)
  | Ast.Bor, Vint x, Vint y -> Vint (x lor y)
  | Ast.Bxor, Vint x, Vint y -> Vint (x lxor y)
  | Ast.Shl, Vint x, Vint y -> Vint (x lsl (y land 63))
  | Ast.Shr, Vint x, Vint y -> Vint (x asr (y land 63))
  | Ast.Lt, Vint x, Vint y -> Vbool (x < y)
  | Ast.Le, Vint x, Vint y -> Vbool (x <= y)
  | Ast.Gt, Vint x, Vint y -> Vbool (x > y)
  | Ast.Ge, Vint x, Vint y -> Vbool (x >= y)
  | Ast.Lt, Vfloat x, Vfloat y -> Vbool (x < y)
  | Ast.Le, Vfloat x, Vfloat y -> Vbool (x <= y)
  | Ast.Gt, Vfloat x, Vfloat y -> Vbool (x > y)
  | Ast.Ge, Vfloat x, Vfloat y -> Vbool (x >= y)
  | Ast.Eq, x, y -> Vbool (Value.equal x y)
  | Ast.Ne, x, y -> Vbool (not (Value.equal x y))
  | Ast.Land, Vbool x, Vbool y -> Vbool (x && y)
  | Ast.Lor, Vbool x, Vbool y -> Vbool (x || y)
  | _ -> invalid_arg "Interp: ill-typed binop"

let eval_cond cond a b =
  let c =
    match a, b with
    | Vint x, Vint y -> compare x y
    | Vfloat x, Vfloat y -> compare x y
    | Vbool x, Vbool y -> compare x y
    | Vref x, Vref y -> compare x y
    | _ -> invalid_arg "Interp: ill-typed comparison"
  in
  match cond with
  | B.Ceq -> c = 0
  | B.Cne -> c <> 0
  | B.Clt -> c < 0
  | B.Cle -> c <= 0
  | B.Cgt -> c > 0
  | B.Cge -> c >= 0

let null_check ctx addr =
  Exec_ctx.charge ctx ctx.Exec_ctx.cost.Cost.null_check;
  if addr = 0 then raise (Exec_ctx.App_exception Exec_ctx.exc_null_pointer)

let bounds_check ctx idx len =
  Exec_ctx.charge ctx ctx.Exec_ctx.cost.Cost.bounds_check;
  if idx < 0 || idx >= len then
    raise (Exec_ctx.App_exception Exec_ctx.exc_out_of_bounds)

(* Innermost handler covering [pc]: greatest start; ties (nested ranges that
   open together) go to the smaller range. *)
let find_handler (m : B.compiled_method) pc =
  let best = ref None in
  Array.iter
    (fun ((s, e, _, _) as h) ->
       if s <= pc && pc < e then
         match !best with
         | Some (s', e', _, _) when s' > s || (s' = s && e' <= e) -> ()
         | Some _ | None -> best := Some h)
    m.B.cm_handlers;
  !best

let interpret (ctx : Exec_ctx.t) mid args =
  let c = ctx.Exec_ctx.cost in
  let dx = ctx.Exec_ctx.dx in
  let mem = ctx.Exec_ctx.mem in
  let m = dx.B.dx_methods.(mid) in
  let regs = Array.make (max m.B.cm_nregs 1) (Vint 0) in
  List.iteri (fun i v -> regs.(i) <- v) args;
  let pc = ref 0 in
  let return_value = ref None in
  let running = ref true in
  let dispatch_charge extra = Exec_ctx.charge ctx (c.Cost.interp_dispatch + extra) in
  while !running do
    let cur = !pc in
    match
      (match m.B.cm_code.(cur) with
       | B.Const (d, const) ->
         dispatch_charge c.Cost.const;
         regs.(d) <-
           (match const with
            | B.Cint k -> Vint k
            | B.Cfloat f -> Vfloat f
            | B.Cbool b -> Vbool b
            | B.Cnull -> Value.null);
         incr pc
       | B.Move (d, s) ->
         dispatch_charge c.Cost.move;
         regs.(d) <- regs.(s);
         incr pc
       | B.Binop (op, d, a, b) ->
         dispatch_charge (binop_cost c op regs.(a));
         regs.(d) <- eval_binop op regs.(a) regs.(b);
         incr pc
       | B.Unop (Ast.Neg, d, a) ->
         (match regs.(a) with
          | Vint x ->
            dispatch_charge c.Cost.int_alu;
            regs.(d) <- Vint (-x)
          | Vfloat x ->
            dispatch_charge c.Cost.float_alu;
            regs.(d) <- Vfloat (-.x)
          | Vbool _ | Vref _ -> invalid_arg "Interp: neg");
         incr pc
       | B.Unop (Ast.Not, d, a) ->
         dispatch_charge c.Cost.int_alu;
         regs.(d) <- Vbool (not (Value.to_bool regs.(a)));
         incr pc
       | B.IntToFloat (d, a) ->
         dispatch_charge c.Cost.float_conv;
         regs.(d) <- Vfloat (float_of_int (Value.to_int regs.(a)));
         incr pc
       | B.FloatToInt (d, a) ->
         dispatch_charge c.Cost.float_conv;
         regs.(d) <- Vint (int_of_float (Value.to_float regs.(a)));
         incr pc
       | B.If (cond, a, b, target) ->
         dispatch_charge c.Cost.branch;
         if eval_cond cond regs.(a) regs.(b) then begin
           if target <= cur then Exec_ctx.safepoint ctx;
           pc := target
         end
         else incr pc
       | B.Ifz (cond, a, target) ->
         dispatch_charge c.Cost.branch;
         let zero =
           match regs.(a) with
           | Vint _ -> Vint 0
           | Vfloat _ -> Vfloat 0.0
           | Vbool _ -> Vbool false
           | Vref _ -> Vref 0
         in
         if eval_cond cond regs.(a) zero then begin
           if target <= cur then Exec_ctx.safepoint ctx;
           pc := target
         end
         else incr pc
       | B.Goto target ->
         dispatch_charge c.Cost.branch;
         if target <= cur then Exec_ctx.safepoint ctx;
         pc := target
       | B.NewObj (d, cid) ->
         dispatch_charge 0;
         regs.(d) <- Vref (Exec_ctx.alloc_object ctx cid);
         incr pc
       | B.NewArr (d, _, len) ->
         dispatch_charge 0;
         regs.(d) <- Vref (Exec_ctx.alloc_array ctx (Value.to_int regs.(len)));
         incr pc
       | B.ALoad (kind, d, a, i) ->
         dispatch_charge c.Cost.load;
         let arr = Value.to_ref regs.(a) in
         null_check ctx arr;
         let len = Exec_ctx.array_length ctx arr in
         let idx = Value.to_int regs.(i) in
         bounds_check ctx idx len;
         regs.(d) <- Value.load mem kind (Exec_ctx.elem_addr arr idx);
         incr pc
       | B.AStore (_, a, i, s) ->
         dispatch_charge c.Cost.store;
         let arr = Value.to_ref regs.(a) in
         null_check ctx arr;
         let len = Exec_ctx.array_length ctx arr in
         let idx = Value.to_int regs.(i) in
         bounds_check ctx idx len;
         Value.store mem (Exec_ctx.elem_addr arr idx) regs.(s);
         incr pc
       | B.ArrLen (d, a) ->
         dispatch_charge 0;
         let arr = Value.to_ref regs.(a) in
         null_check ctx arr;
         regs.(d) <- Vint (Exec_ctx.array_length ctx arr);
         incr pc
       | B.IGet (kind, d, o, off) ->
         dispatch_charge c.Cost.load;
         let obj = Value.to_ref regs.(o) in
         null_check ctx obj;
         regs.(d) <- Value.load mem kind (Exec_ctx.field_addr obj off);
         incr pc
       | B.IPut (_, o, s, off) ->
         dispatch_charge c.Cost.store;
         let obj = Value.to_ref regs.(o) in
         null_check ctx obj;
         Value.store mem (Exec_ctx.field_addr obj off) regs.(s);
         incr pc
       | B.SGet (kind, d, slot) ->
         dispatch_charge c.Cost.load;
         regs.(d) <- Value.load mem kind (Exec_ctx.static_addr ctx slot);
         incr pc
       | B.SPut (_, slot, s) ->
         dispatch_charge c.Cost.store;
         Value.store mem (Exec_ctx.static_addr ctx slot) regs.(s);
         incr pc
       | B.InvokeStatic (ret, callee, argregs) ->
         dispatch_charge c.Cost.call_overhead;
         let cargs = List.map (fun r -> regs.(r)) argregs in
         let result = Exec_ctx.invoke ctx callee cargs in
         (match ret, result with
          | Some d, Some v -> regs.(d) <- v
          | Some _, None | None, (Some _ | None) -> ());
         incr pc
       | B.InvokeVirtual (ret, slot, argregs) ->
         dispatch_charge (c.Cost.call_overhead + c.Cost.virtual_extra);
         let cargs = List.map (fun r -> regs.(r)) argregs in
         let recv =
           match cargs with
           | r :: _ -> Value.to_ref r
           | [] -> invalid_arg "Interp: virtual call without receiver"
         in
         null_check ctx recv;
         let cid = Exec_ctx.obj_class ctx recv in
         (match ctx.Exec_ctx.record_vcall with
          | Some h -> h (mid, cur) cid
          | None -> ());
         let callee = Exec_ctx.vtable_target ctx ~recv_class:cid ~slot in
         let result = Exec_ctx.invoke ctx callee cargs in
         (match ret, result with
          | Some d, Some v -> regs.(d) <- v
          | Some _, None | None, (Some _ | None) -> ());
         incr pc
       | B.InvokeNative (ret, native, argregs) ->
         dispatch_charge 0;
         let cargs = List.map (fun r -> regs.(r)) argregs in
         let result = Jni.call ctx native cargs in
         (match ret, result with
          | Some d, Some v -> regs.(d) <- v
          | Some _, None | None, (Some _ | None) -> ());
         incr pc
       | B.Ret r ->
         dispatch_charge c.Cost.int_alu;
         return_value := Option.map (fun r -> regs.(r)) r;
         running := false
       | B.Throw r ->
         dispatch_charge c.Cost.throw_cost;
         raise (Exec_ctx.App_exception (Value.to_int regs.(r))))
    with
    | () -> ()
    | exception Exec_ctx.App_exception code ->
      (match find_handler m cur with
       | Some (_, _, rexc, handler) ->
         regs.(rexc) <- Vint code;
         pc := handler
       | None -> raise (Exec_ctx.App_exception code))
  done;
  !return_value

let install ctx = Exec_ctx.set_dispatch ctx interpret

let run_main ctx = Exec_ctx.invoke ctx ctx.Exec_ctx.dx.B.dx_main []
