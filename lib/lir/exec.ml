module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Hir = Repro_hgraph.Hir
module Mem = Repro_os.Mem
module Ctx = Repro_vm.Exec_ctx
module Value = Repro_vm.Value
module Cost = Repro_vm.Cost
module Interp = Repro_vm.Interp
module Jni = Repro_vm.Jni
module Faults = Repro_util.Faults
open Repro_vm.Value

exception Segfault of string

(* Instruction-cache pressure: functions much larger than the hot-code
   budget pay extra on every control transfer.  This is what makes blind
   unrolling/inlining a loss and gives the optimization space its
   characteristic non-monotonicity. *)
let icache_budget = 400
let icache_divisor = 150

(* Register pressure: values live across block boundaries beyond the
   physical register file spill; the reload cost is charged per control
   transfer.  Aggressive inlining and unrolling raise this. *)
let physical_registers = 24
let spill_divisor = 3

(* Read-only: [Binary.create] fills the [f_pressure] cache before a binary
   can cross domains, so the executor never writes shared function records
   (the old lazy fill here raced between Evalpool worker domains).  A
   function that bypassed [Binary.create] just recomputes. *)
let pressure_of (f : Hir.func) =
  match f.Hir.f_pressure with
  | Some p -> p
  | None -> Repro_hgraph.Analysis.pressure f

let fetch_penalty_of (f : Hir.func) =
  max 0 ((Hir.size f - icache_budget) / icache_divisor)
  + max 0 ((pressure_of f - physical_registers) / spill_divisor)

(* Lockstep observation point shared with the block-fused engine: when set,
   fires at every block entry with (method id, block id, cycles).  Both
   engines fire it at the same program points with the same cycle counts,
   which is what lets the differential tests dump the first divergent block
   instead of just "the run ended differently". *)
let block_hook : (int -> int -> int -> unit) option ref = ref None

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

(* ARM-style division: no trap, x/0 = 0 and x%0 = x. *)
let eval_binop_arm op a b =
  match op, b with
  | Ast.Div, Vint 0 -> Vint 0
  | Ast.Rem, Vint 0 -> a
  | _ -> Interp.eval_binop op a b

let zero_like = function
  | Vint _ -> Vint 0
  | Vfloat _ -> Vfloat 0.0
  | Vbool _ -> Vbool false
  | Vref _ -> Vref 0

(* A corrupted value must stay the same shape (the callers' cost model
   switches on it) but differ under [Value.equal]. *)
let perturb_value = function
  | Vint x -> Vint (x + 1)
  | Vfloat x -> Vfloat (x +. 1.0)
  | Vbool b -> Vbool (not b)
  | Vref a -> Vref (a + 8)

(* The instruction semantics both engines execute.  None of these
   functions allocates per instruction: [Ctx.charge ctx] is written out in
   each case, as a local [charge] closure would be built on every call. *)

let rec fill_args regs i = function
  | [] -> ()
  | v :: rest ->
    regs.(i) <- v;
    fill_args regs (i + 1) rest

let frame (f : Hir.func) args =
  let regs = Array.make (max f.Hir.f_nregs 1) (Vint 0) in
  fill_args regs 0 args;
  regs

(* Executor fault points: armed only inside a [Faults.scoped] replay (a
   verified candidate replay), keyed by (scope, method) — the same
   function faults the same way on every call of that replay.  Fires
   [Exec_crash] and [Exec_hang] here, at function entry; returns whether
   [Exec_wrong_ret] fired, for [exec_ret] to apply. *)
let fault_entry (ctx : Ctx.t) (f : Hir.func) =
  match Faults.scope_key () with
  | None -> false
  | Some sk ->
    let key = Faults.combine sk f.Hir.f_mid in
    if Faults.fire Faults.Exec_crash ~key then begin
      Faults.record Faults.Exec_crash;
      raise (Segfault "injected executor fault")
    end;
    if Faults.fire Faults.Exec_hang ~key then begin
      Faults.record Faults.Exec_hang;
      (* spin until the replay fuel declares the execution hung *)
      while true do
        Ctx.charge ctx 1_000_000
      done
    end;
    Faults.fire Faults.Exec_wrong_ret ~key

let as_ref v =
  match v with
  | Vref a -> a
  | Vint a -> a     (* guard-free code can feed integers as addresses *)
  | Vfloat _ | Vbool _ -> raise (Segfault "non-pointer value dereferenced")

let exec_instr (ctx : Ctx.t) regs i =
  let c = ctx.Ctx.cost in
  let mem = ctx.Ctx.mem in
  try
    match i with
    | Hir.Const (d, const) ->
      Ctx.charge ctx c.Cost.const;
      regs.(d) <-
        (match const with
         | B.Cint k -> Vint k
         | B.Cfloat x -> Vfloat x
         | B.Cbool b -> Vbool b
         | B.Cnull -> Value.null)
    | Hir.Move (d, s) ->
      Ctx.charge ctx c.Cost.move;
      regs.(d) <- regs.(s)
    | Hir.Binop (op, d, a, b) ->
      Ctx.charge ctx (binop_cost c op regs.(a));
      regs.(d) <- eval_binop_arm op regs.(a) regs.(b)
    | Hir.Fma (d, a, b, cc) ->
      Ctx.charge ctx c.Cost.float_mul;
      regs.(d) <-
        Vfloat
          (Float.fma (Value.to_float regs.(a)) (Value.to_float regs.(b))
             (Value.to_float regs.(cc)))
    | Hir.Select (d, cnd, a, b) ->
      Ctx.charge ctx c.Cost.int_alu;
      regs.(d) <- (if Value.is_truthy regs.(cnd) then regs.(a) else regs.(b))
    | Hir.Unop (Ast.Neg, d, a) ->
      (match regs.(a) with
       | Vint x ->
         Ctx.charge ctx c.Cost.int_alu;
         regs.(d) <- Vint (-x)
       | Vfloat x ->
         Ctx.charge ctx c.Cost.float_alu;
         regs.(d) <- Vfloat (-.x)
       | Vbool _ | Vref _ -> raise (Segfault "neg of non-number"))
    | Hir.Unop (Ast.Not, d, a) ->
      Ctx.charge ctx c.Cost.int_alu;
      regs.(d) <- Vbool (not (Value.to_bool regs.(a)))
    | Hir.I2f (d, a) ->
      Ctx.charge ctx c.Cost.float_conv;
      regs.(d) <- Vfloat (float_of_int (Value.to_int regs.(a)))
    | Hir.F2i (d, a) ->
      Ctx.charge ctx c.Cost.float_conv;
      regs.(d) <- Vint (int_of_float (Value.to_float regs.(a)))
    | Hir.NewObj (d, cid) -> regs.(d) <- Vref (Ctx.alloc_object ctx cid)
    | Hir.NewArr (d, _, len) ->
      regs.(d) <- Vref (Ctx.alloc_array ctx (Value.to_int regs.(len)))
    | Hir.GuardNull r ->
      Ctx.charge ctx c.Cost.null_check;
      if as_ref regs.(r) = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer)
    | Hir.GuardBounds (i, l) ->
      Ctx.charge ctx c.Cost.bounds_check;
      let idx = Value.to_int regs.(i) and len = Value.to_int regs.(l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds)
    | Hir.GuardDivZero r ->
      Ctx.charge ctx c.Cost.null_check;
      (match regs.(r) with
       | Vint 0 -> raise (Ctx.App_exception Ctx.exc_div_by_zero)
       | _ -> ())
    | Hir.LoadElem (k, d, a, i) ->
      Ctx.charge ctx c.Cost.load;
      let addr = Ctx.elem_addr (as_ref regs.(a)) (Value.to_int regs.(i)) in
      regs.(d) <- Value.load mem k addr
    | Hir.StoreElem (_, a, i, v) ->
      Ctx.charge ctx c.Cost.store;
      let addr = Ctx.elem_addr (as_ref regs.(a)) (Value.to_int regs.(i)) in
      Value.store mem addr regs.(v)
    | Hir.LoadLen (d, a) ->
      Ctx.charge ctx c.Cost.load;
      regs.(d) <- Vint (Mem.read_int mem (as_ref regs.(a)))
    | Hir.LoadField (k, d, o, off) ->
      Ctx.charge ctx c.Cost.load;
      regs.(d) <- Value.load mem k (Ctx.field_addr (as_ref regs.(o)) off)
    | Hir.StoreField (_, o, v, off) ->
      Ctx.charge ctx c.Cost.store;
      Value.store mem (Ctx.field_addr (as_ref regs.(o)) off) regs.(v)
    | Hir.LoadClass (d, o) ->
      Ctx.charge ctx c.Cost.load;
      regs.(d) <- Vint (Mem.read_int mem (as_ref regs.(o)))
    | Hir.SGet (k, d, slot) ->
      Ctx.charge ctx c.Cost.load;
      regs.(d) <- Value.load mem k (Ctx.static_addr ctx slot)
    | Hir.SPut (_, slot, v) ->
      Ctx.charge ctx c.Cost.store;
      Value.store mem (Ctx.static_addr ctx slot) regs.(v)
    | Hir.CallStatic (ret, mid, argregs) ->
      Ctx.charge ctx c.Cost.call_overhead;
      let cargs = List.map (fun r -> regs.(r)) argregs in
      (match ret, Ctx.invoke ctx mid cargs with
       | Some d, Some v -> regs.(d) <- v
       | Some _, None | None, (Some _ | None) -> ())
    | Hir.CallVirtual (ret, slot, argregs, _site) ->
      Ctx.charge ctx (c.Cost.call_overhead + c.Cost.virtual_extra + c.Cost.load);
      let cargs = List.map (fun r -> regs.(r)) argregs in
      let recv =
        match argregs with
        | r :: _ -> as_ref regs.(r)
        | [] -> raise (Segfault "virtual call without receiver")
      in
      let cid = Mem.read_int mem recv in
      if cid < 0 || cid >= Array.length ctx.Ctx.dx.B.dx_classes then
        raise (Segfault "corrupt object header in virtual dispatch");
      let vtable = ctx.Ctx.dx.B.dx_classes.(cid).B.ci_vtable in
      if slot < 0 || slot >= Array.length vtable then
        raise (Segfault "vtable slot out of range");
      (match ret, Ctx.invoke ctx vtable.(slot) cargs with
       | Some d, Some v -> regs.(d) <- v
       | Some _, None | None, (Some _ | None) -> ())
    | Hir.CallNative (ret, n, argregs, mode) ->
      let cargs = List.map (fun r -> regs.(r)) argregs in
      let result =
        match mode with
        | Hir.Jni -> Jni.call ctx n cargs
        | Hir.Intrinsic -> Jni.call ~as_native:false ctx n cargs
      in
      (match ret, result with
       | Some d, Some v -> regs.(d) <- v
       | Some _, None | None, (Some _ | None) -> ())
    | Hir.SuspendCheck -> Ctx.safepoint ctx
    | Hir.ALoadC _ | Hir.AStoreC _ | Hir.ArrLenC _ | Hir.IGetC _ | Hir.IPutC _ ->
      failwith "Exec: composite instruction reached the executor \
                (method was not translated)"
  with Invalid_argument msg ->
    (* type confusion in guard-stripped code: on hardware a wild access,
       i.e. a crash *)
    raise (Segfault msg)

(* Terminators run outside [exec_instr]'s Invalid_argument conversion. *)

let branch_cost (ctx : Ctx.t) fetch hint taken =
  let c = ctx.Ctx.cost in
  Ctx.charge ctx (c.Cost.branch + fetch);
  match hint, taken with
  | Hir.Predict_taken, true | Hir.Predict_not_taken, false -> ()
  | Hir.Predict_taken, false | Hir.Predict_not_taken, true ->
    Ctx.charge ctx c.Cost.branch_miss
  | Hir.Predict_none, _ -> Ctx.charge ctx (c.Cost.branch_miss / 2)

let exec_if ctx regs ~fetch cond a rhs bt be hint =
  let vb =
    match rhs with
    | Some rb -> regs.(rb)
    | None -> zero_like regs.(a)
  in
  let taken = Interp.eval_cond cond regs.(a) vb in
  branch_cost ctx fetch hint taken;
  if taken then bt else be

let exec_ret (ctx : Ctx.t) regs ~wrong_ret r =
  Ctx.charge ctx ctx.Ctx.cost.Cost.int_alu;
  match r with
  | None -> None
  | Some r ->
    let v = regs.(r) in
    if wrong_ret then begin
      Faults.record Faults.Exec_wrong_ret;
      Some (perturb_value v)
    end
    else Some v

let exec_throw (ctx : Ctx.t) regs r =
  Ctx.charge ctx ctx.Ctx.cost.Cost.throw_cost;
  raise (Ctx.App_exception (Value.to_int regs.(r)))

let run_func (ctx : Ctx.t) (f : Hir.func) args =
  let regs = frame f args in
  let wrong_ret = fault_entry ctx f in
  let fetch = fetch_penalty_of f in
  let step i = exec_instr ctx regs i in
  let result = ref None in
  let running = ref true in
  let bid = ref f.Hir.f_entry in
  while !running do
    (match !block_hook with
     | Some h -> h f.Hir.f_mid !bid ctx.Ctx.cycles
     | None -> ());
    let b = Hir.block f !bid in
    List.iter step b.Hir.insns;
    match b.Hir.term with
    | Hir.Goto t ->
      Ctx.charge ctx (ctx.Ctx.cost.Cost.branch + fetch);
      bid := t
    | Hir.If (cond, a, rhs, bt, be, hint) ->
      bid := exec_if ctx regs ~fetch cond a rhs bt be hint
    | Hir.Ret r ->
      result := exec_ret ctx regs ~wrong_ret r;
      running := false
    | Hir.ThrowT r -> exec_throw ctx regs r
  done;
  !result

let dispatcher binary =
  fun ctx mid args ->
    match Binary.find binary mid with
    | Some f -> run_func ctx f args
    | None -> Interp.interpret ctx mid args

let install ctx binary = Ctx.set_dispatch ctx (dispatcher binary)
