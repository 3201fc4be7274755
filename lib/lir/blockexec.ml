(* The block-fused LIR executor.

   Runs the same decomposed-dialect graphs as [Exec], against the plans
   precomputed by [Blockplan], under a strict bit-identical contract: cycle
   accounting, observable memory, return values and crash/hang
   classification all match the reference engine exactly, for conforming
   *and* non-conforming (guard-stripped, fault-injected, malformed) code.
   What changes is only how much bookkeeping runs per instruction:

   - straight-line segments whose static worst-case bound fits in the
     remaining fuel run on a local cycle accumulator — one headroom
     comparison replaces every per-instruction fuel check ([Ctx.charge]
     raises on [cycles > fuel], so [cycles + bound <= fuel] at entry proves
     no interior charge can raise Timeout).  The accumulator is flushed on
     segment exit and on any exception, so crash-time cycle counts are
     exact;

   - fused micro-ops execute both halves back to back, charging the same
     costs in the same order — fusion saves dispatch, never accounting;

   - straightened gotos charge their branch cost inline instead of going
     around the dispatch loop.

   Barrier instructions (calls, allocation, suspend checks, Sys.clock) and
   terminators always run on the exact path: their costs are dynamic or
   their callees can observe the cycle counter mid-flight.

   Profiling replays ([sample_period > 0]) fall back to [Exec.run_func]
   per call: the sampling hook inside [Ctx.charge] must see every
   intermediate cycle value, which batched charging deliberately skips. *)

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

(* Unchecked register-file access for the fast path.  Only ever reached
   through segments of a plan whose [fp_regs_ok] proof holds (every
   register index the function mentions is inside the file), so the bounds
   check the safe accessors would perform is statically dead.  Declared as
   the primitives so full applications compile to a raw load/store. *)
external rget : 'a array -> int -> 'a = "%array_unsafe_get"
external rset : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type engine = Ref | Fused

let engine_name = function Ref -> "ref" | Fused -> "fused"

let engine_of_string = function
  | "ref" -> Some Ref
  | "fused" -> Some Fused
  | _ -> None

let default = Atomic.make Fused
let default_engine () = Atomic.get default
let set_default_engine e = Atomic.set default e

let run_plan (ctx : Ctx.t) (fp : Blockplan.fplan) args =
  let f = fp.Blockplan.fp_func in
  let c = ctx.Ctx.cost in
  let mem = ctx.Ctx.mem in
  let regs = Array.make (max f.Hir.f_nregs 1) (Vint 0) in
  List.iteri (fun i v -> regs.(i) <- v) args;
  (* Fault points: keyed and fired exactly as in [Exec.run_func], so an
     injected fault produces the same failure at the same call. *)
  let fault_wrong_ret =
    match Faults.scope_key () with
    | None -> false
    | Some sk ->
      let key = Faults.combine sk f.Hir.f_mid in
      if Faults.fire Faults.Exec_crash ~key then begin
        Faults.record Faults.Exec_crash;
        raise (Exec.Segfault "injected executor fault")
      end;
      if Faults.fire Faults.Exec_hang ~key then begin
        Faults.record Faults.Exec_hang;
        while true do
          Ctx.charge ctx 1_000_000
        done
      end;
      Faults.fire Faults.Exec_wrong_ret ~key
  in
  let fetch_penalty = fp.Blockplan.fp_fetch in
  (* Pending cycles of the segment currently on the fast path.  Flushed
     through [Ctx.charge] on segment exit and on any exception; the
     headroom proof guarantees the flush itself cannot raise. *)
  let acc = ref 0 in
  let flush () =
    if !acc <> 0 then begin
      let n = !acc in
      acc := 0;
      Ctx.charge ctx n
    end
  in
  let charge_exact n = Ctx.charge ctx n in
  let charge_acc n = acc := !acc + n in
  let read addr =
    match Mem.read_word mem addr with
    | w -> w
    | exception Invalid_argument msg -> raise (Exec.Segfault msg)
  in
  let write addr v =
    match Mem.write_word mem addr v with
    | () -> ()
    | exception Invalid_argument msg -> raise (Exec.Segfault msg)
  in
  let as_ref v =
    match v with
    | Vref a -> a
    | Vint a -> a
    | Vfloat _ | Vbool _ -> raise (Exec.Segfault "non-pointer value dereferenced")
  in
  (* One instruction, parameterized on the charge sink.  Case bodies mirror
     [Exec.run_func]'s [exec_instr] verbatim — same charges, same
     evaluation order, same failures. *)
  let exec_instr ~charge i =
    match i with
    | Hir.Const (d, const) ->
      charge c.Cost.const;
      regs.(d) <-
        (match const with
         | B.Cint k -> Vint k
         | B.Cfloat x -> Vfloat x
         | B.Cbool b -> Vbool b
         | B.Cnull -> Value.null)
    | Hir.Move (d, s) ->
      charge c.Cost.move;
      regs.(d) <- regs.(s)
    | Hir.Binop (op, d, a, b) ->
      charge (Exec.binop_cost c op regs.(a));
      regs.(d) <- Exec.eval_binop_arm op regs.(a) regs.(b)
    | Hir.Fma (d, a, b, cc) ->
      charge c.Cost.float_mul;
      regs.(d) <-
        Vfloat
          (Float.fma (Value.to_float regs.(a)) (Value.to_float regs.(b))
             (Value.to_float regs.(cc)))
    | Hir.Select (d, cnd, a, b) ->
      charge c.Cost.int_alu;
      regs.(d) <- (if Value.is_truthy regs.(cnd) then regs.(a) else regs.(b))
    | Hir.Unop (Ast.Neg, d, a) ->
      (match regs.(a) with
       | Vint x ->
         charge c.Cost.int_alu;
         regs.(d) <- Vint (-x)
       | Vfloat x ->
         charge c.Cost.float_alu;
         regs.(d) <- Vfloat (-.x)
       | Vbool _ | Vref _ -> raise (Exec.Segfault "neg of non-number"))
    | Hir.Unop (Ast.Not, d, a) ->
      charge c.Cost.int_alu;
      regs.(d) <- Vbool (not (Value.to_bool regs.(a)))
    | Hir.I2f (d, a) ->
      charge c.Cost.float_conv;
      regs.(d) <- Vfloat (float_of_int (Value.to_int regs.(a)))
    | Hir.F2i (d, a) ->
      charge c.Cost.float_conv;
      regs.(d) <- Vint (int_of_float (Value.to_float regs.(a)))
    | Hir.NewObj (d, cid) -> regs.(d) <- Vref (Ctx.alloc_object ctx cid)
    | Hir.NewArr (d, _, len) ->
      regs.(d) <- Vref (Ctx.alloc_array ctx (Value.to_int regs.(len)))
    | Hir.GuardNull r ->
      charge c.Cost.null_check;
      if as_ref regs.(r) = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer)
    | Hir.GuardBounds (i, l) ->
      charge c.Cost.bounds_check;
      let idx = Value.to_int regs.(i) and len = Value.to_int regs.(l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds)
    | Hir.GuardDivZero r ->
      charge c.Cost.null_check;
      (match regs.(r) with
       | Vint 0 -> raise (Ctx.App_exception Ctx.exc_div_by_zero)
       | _ -> ())
    | Hir.LoadElem (k, d, a, i) ->
      charge c.Cost.load;
      let addr = Ctx.elem_addr (as_ref regs.(a)) (Value.to_int regs.(i)) in
      regs.(d) <- Value.of_word k (read addr)
    | Hir.StoreElem (_, a, i, v) ->
      charge c.Cost.store;
      let addr = Ctx.elem_addr (as_ref regs.(a)) (Value.to_int regs.(i)) in
      write addr (Value.to_word regs.(v))
    | Hir.LoadLen (d, a) ->
      charge c.Cost.load;
      regs.(d) <- Vint (Int64.to_int (read (as_ref regs.(a))))
    | Hir.LoadField (k, d, o, off) ->
      charge c.Cost.load;
      regs.(d) <- Value.of_word k (read (Ctx.field_addr (as_ref regs.(o)) off))
    | Hir.StoreField (_, o, v, off) ->
      charge c.Cost.store;
      write (Ctx.field_addr (as_ref regs.(o)) off) (Value.to_word regs.(v))
    | Hir.LoadClass (d, o) ->
      charge c.Cost.load;
      regs.(d) <- Vint (Int64.to_int (read (as_ref regs.(o))))
    | Hir.SGet (k, d, slot) ->
      charge c.Cost.load;
      regs.(d) <- Value.of_word k (read (Ctx.static_addr ctx slot))
    | Hir.SPut (_, slot, v) ->
      charge c.Cost.store;
      write (Ctx.static_addr ctx slot) (Value.to_word regs.(v))
    | Hir.CallStatic (ret, mid, argregs) ->
      charge c.Cost.call_overhead;
      let cargs = List.map (fun r -> regs.(r)) argregs in
      (match ret, Ctx.invoke ctx mid cargs with
       | Some d, Some v -> regs.(d) <- v
       | Some _, None | None, (Some _ | None) -> ())
    | Hir.CallVirtual (ret, slot, argregs, _site) ->
      charge (c.Cost.call_overhead + c.Cost.virtual_extra + c.Cost.load);
      let cargs = List.map (fun r -> regs.(r)) argregs in
      let recv =
        match argregs with
        | r :: _ -> as_ref regs.(r)
        | [] -> raise (Exec.Segfault "virtual call without receiver")
      in
      let cid = Int64.to_int (read recv) in
      if cid < 0 || cid >= Array.length ctx.Ctx.dx.B.dx_classes then
        raise (Exec.Segfault "corrupt object header in virtual dispatch");
      let vtable = ctx.Ctx.dx.B.dx_classes.(cid).B.ci_vtable in
      if slot < 0 || slot >= Array.length vtable then
        raise (Exec.Segfault "vtable slot out of range");
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
  in
  (* One micro-op.  Fused cases interleave the charges and effects of their
     two underlying instructions in the reference order; shared
     subexpressions (the guarded pointer, the bounds-checked index) are
     reused only where the registers provably cannot have changed between
     the halves. *)
  let exec_mop ~charge m =
    match m with
    | Blockplan.Op i -> exec_instr ~charge i
    | Blockplan.Goto_seam (n, t) ->
      charge n;
      (match !Exec.block_hook with
       | Some h -> h f.Hir.f_mid t (ctx.Ctx.cycles + !acc)
       | None -> ())
    | Blockplan.Null_load_len (d, a) ->
      charge c.Cost.null_check;
      let p = as_ref regs.(a) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      charge c.Cost.load;
      regs.(d) <- Vint (Int64.to_int (read p))
    | Blockplan.Null_load_field (k, d, o, off) ->
      charge c.Cost.null_check;
      let p = as_ref regs.(o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      charge c.Cost.load;
      regs.(d) <- Value.of_word k (read (Ctx.field_addr p off))
    | Blockplan.Null_store_field (_, o, v, off) ->
      charge c.Cost.null_check;
      let p = as_ref regs.(o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      charge c.Cost.store;
      write (Ctx.field_addr p off) (Value.to_word regs.(v))
    | Blockplan.Bounds_load_elem (k, d, a, i, l) ->
      charge c.Cost.bounds_check;
      let idx = Value.to_int regs.(i) and len = Value.to_int regs.(l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      charge c.Cost.load;
      let addr = Ctx.elem_addr (as_ref regs.(a)) idx in
      regs.(d) <- Value.of_word k (read addr)
    | Blockplan.Bounds_store_elem (_, a, i, v, l) ->
      charge c.Cost.bounds_check;
      let idx = Value.to_int regs.(i) and len = Value.to_int regs.(l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      charge c.Cost.store;
      let addr = Ctx.elem_addr (as_ref regs.(a)) idx in
      write addr (Value.to_word regs.(v))
    | Blockplan.Load_elem_op (k, dl, a, i, op, d2, x, y) ->
      charge c.Cost.load;
      let addr = Ctx.elem_addr (as_ref regs.(a)) (Value.to_int regs.(i)) in
      regs.(dl) <- Value.of_word k (read addr);
      charge (Exec.binop_cost c op regs.(x));
      regs.(d2) <- Exec.eval_binop_arm op regs.(x) regs.(y)
  in
  (* Type confusion surfaces as Invalid_argument from the value accessors,
     converted per micro-op exactly like the reference's per-instruction
     wrapper (there is no handler between the halves of a fused pair). *)
  let exec_mop ~charge m =
    try exec_mop ~charge m
    with Invalid_argument msg -> raise (Exec.Segfault msg)
  in
  let exec_seg_exact (sg : Blockplan.seg) =
    Array.iter (exec_mop ~charge:charge_exact) sg.Blockplan.sg_ops
  in
  (* Fast-path twin of the hot [exec_instr]/[exec_mop] cases: identical
     effects and charge order, with the charge sink inlined as an
     accumulator add instead of a closure call, and no per-mop exception
     wrapper — [exec_seg_fast] installs a single handler around the whole
     segment, which is observably the same (neither engine has a handler
     between micro-ops, and the Invalid_argument-to-Segfault conversion
     happens before the accumulator flush either way).  Anything not
     specialized here delegates to the generic case bodies. *)
  let exec_mop_fast m =
    match m with
    | Blockplan.Op (Hir.Const (d, const)) ->
      acc := !acc + c.Cost.const;
      rset regs d
        (match const with
         | B.Cint k -> Vint k
         | B.Cfloat x -> Vfloat x
         | B.Cbool b -> Vbool b
         | B.Cnull -> Value.null)
    | Blockplan.Op (Hir.Move (d, s)) ->
      acc := !acc + c.Cost.move;
      rset regs d (rget regs s)
    | Blockplan.Op (Hir.Binop (op, d, a, b)) ->
      acc := !acc + Exec.binop_cost c op (rget regs a);
      rset regs d (Exec.eval_binop_arm op (rget regs a) (rget regs b))
    | Blockplan.Op (Hir.Fma (d, a, b, cc)) ->
      acc := !acc + c.Cost.float_mul;
      rset regs d
        (Vfloat
           (Float.fma
              (Value.to_float (rget regs a))
              (Value.to_float (rget regs b))
              (Value.to_float (rget regs cc))))
    | Blockplan.Op (Hir.Select (d, cnd, a, b)) ->
      acc := !acc + c.Cost.int_alu;
      rset regs d
        (if Value.is_truthy (rget regs cnd) then rget regs a else rget regs b)
    | Blockplan.Op (Hir.Unop (Ast.Neg, d, a)) ->
      (match rget regs a with
       | Vint x ->
         acc := !acc + c.Cost.int_alu;
         rset regs d (Vint (-x))
       | Vfloat x ->
         acc := !acc + c.Cost.float_alu;
         rset regs d (Vfloat (-.x))
       | Vbool _ | Vref _ -> raise (Exec.Segfault "neg of non-number"))
    | Blockplan.Op (Hir.Unop (Ast.Not, d, a)) ->
      acc := !acc + c.Cost.int_alu;
      rset regs d (Vbool (not (Value.to_bool (rget regs a))))
    | Blockplan.Op (Hir.GuardDivZero r) ->
      acc := !acc + c.Cost.null_check;
      (match rget regs r with
       | Vint 0 -> raise (Ctx.App_exception Ctx.exc_div_by_zero)
       | _ -> ())
    | Blockplan.Op (Hir.I2f (d, a)) ->
      acc := !acc + c.Cost.float_conv;
      rset regs d (Vfloat (float_of_int (Value.to_int (rget regs a))))
    | Blockplan.Op (Hir.F2i (d, a)) ->
      acc := !acc + c.Cost.float_conv;
      rset regs d (Vint (int_of_float (Value.to_float (rget regs a))))
    | Blockplan.Op (Hir.GuardNull r) ->
      acc := !acc + c.Cost.null_check;
      if as_ref (rget regs r) = 0 then
        raise (Ctx.App_exception Ctx.exc_null_pointer)
    | Blockplan.Op (Hir.GuardBounds (i, l)) ->
      acc := !acc + c.Cost.bounds_check;
      let idx = Value.to_int (rget regs i)
      and len = Value.to_int (rget regs l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds)
    | Blockplan.Op (Hir.LoadElem (k, d, a, i)) ->
      acc := !acc + c.Cost.load;
      let addr =
        Ctx.elem_addr (as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      rset regs d (Value.of_word k (read addr))
    | Blockplan.Op (Hir.StoreElem (_, a, i, v)) ->
      acc := !acc + c.Cost.store;
      let addr =
        Ctx.elem_addr (as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      write addr (Value.to_word (rget regs v))
    | Blockplan.Op (Hir.LoadLen (d, a)) ->
      acc := !acc + c.Cost.load;
      rset regs d (Vint (Int64.to_int (read (as_ref (rget regs a)))))
    | Blockplan.Op (Hir.LoadField (k, d, o, off)) ->
      acc := !acc + c.Cost.load;
      rset regs d
        (Value.of_word k (read (Ctx.field_addr (as_ref (rget regs o)) off)))
    | Blockplan.Op (Hir.StoreField (_, o, v, off)) ->
      acc := !acc + c.Cost.store;
      write (Ctx.field_addr (as_ref (rget regs o)) off)
        (Value.to_word (rget regs v))
    | Blockplan.Op (Hir.SGet (k, d, slot)) ->
      acc := !acc + c.Cost.load;
      rset regs d (Value.of_word k (read (Ctx.static_addr ctx slot)))
    | Blockplan.Op (Hir.SPut (_, slot, v)) ->
      acc := !acc + c.Cost.store;
      write (Ctx.static_addr ctx slot) (Value.to_word (rget regs v))
    | Blockplan.Op i -> exec_instr ~charge:charge_acc i
    | Blockplan.Goto_seam (n, t) ->
      acc := !acc + n;
      (match !Exec.block_hook with
       | Some h -> h f.Hir.f_mid t (ctx.Ctx.cycles + !acc)
       | None -> ())
    | Blockplan.Null_load_len (d, a) ->
      acc := !acc + c.Cost.null_check;
      let p = as_ref (rget regs a) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.load;
      rset regs d (Vint (Int64.to_int (read p)))
    | Blockplan.Null_load_field (k, d, o, off) ->
      acc := !acc + c.Cost.null_check;
      let p = as_ref (rget regs o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.load;
      rset regs d (Value.of_word k (read (Ctx.field_addr p off)))
    | Blockplan.Null_store_field (_, o, v, off) ->
      acc := !acc + c.Cost.null_check;
      let p = as_ref (rget regs o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.store;
      write (Ctx.field_addr p off) (Value.to_word (rget regs v))
    | Blockplan.Bounds_load_elem (k, d, a, i, l) ->
      acc := !acc + c.Cost.bounds_check;
      let idx = Value.to_int (rget regs i)
      and len = Value.to_int (rget regs l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      acc := !acc + c.Cost.load;
      let addr = Ctx.elem_addr (as_ref (rget regs a)) idx in
      rset regs d (Value.of_word k (read addr))
    | Blockplan.Bounds_store_elem (_, a, i, v, l) ->
      acc := !acc + c.Cost.bounds_check;
      let idx = Value.to_int (rget regs i)
      and len = Value.to_int (rget regs l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      acc := !acc + c.Cost.store;
      let addr = Ctx.elem_addr (as_ref (rget regs a)) idx in
      write addr (Value.to_word (rget regs v))
    | Blockplan.Load_elem_op (k, dl, a, i, op, d2, x, y) ->
      acc := !acc + c.Cost.load;
      let addr =
        Ctx.elem_addr (as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      rset regs dl (Value.of_word k (read addr));
      acc := !acc + Exec.binop_cost c op (rget regs x);
      rset regs d2 (Exec.eval_binop_arm op (rget regs x) (rget regs y))
  in
  let exec_seg_fast (sg : Blockplan.seg) =
    let ops = sg.Blockplan.sg_ops in
    match
      for k = 0 to Array.length ops - 1 do
        exec_mop_fast (Array.unsafe_get ops k)
      done
    with
    | () -> flush ()
    | exception Invalid_argument msg ->
      (* charges up to the faulting micro-op are already in [acc]; flushing
         makes the crash-time cycle count exact *)
      flush ();
      raise (Exec.Segfault msg)
    | exception e ->
      flush ();
      raise e
  in
  (* [fp_regs_ok] licenses [exec_mop_fast]'s unchecked register accesses;
     without the proof every segment takes the exact checked path, which
     reproduces the reference's out-of-range failure bit for bit. *)
  let regs_ok = fp.Blockplan.fp_regs_ok in
  let run_part p =
    match p with
    | Blockplan.Straight sg ->
      if regs_ok && ctx.Ctx.cycles + sg.Blockplan.sg_bound <= ctx.Ctx.fuel
      then exec_seg_fast sg
      else exec_seg_exact sg
    | Blockplan.Barrier i -> exec_mop ~charge:charge_exact (Blockplan.Op i)
  in
  let branch_cost hint taken =
    Ctx.charge ctx (c.Cost.branch + fetch_penalty);
    match hint, taken with
    | Hir.Predict_taken, true | Hir.Predict_not_taken, false -> ()
    | Hir.Predict_taken, false | Hir.Predict_not_taken, true ->
      Ctx.charge ctx c.Cost.branch_miss
    | Hir.Predict_none, _ -> Ctx.charge ctx (c.Cost.branch_miss / 2)
  in
  let nblocks = Array.length fp.Blockplan.fp_blocks in
  let result = ref None in
  let running = ref true in
  let bid = ref f.Hir.f_entry in
  while !running do
    (match !Exec.block_hook with
     | Some h -> h f.Hir.f_mid !bid ctx.Ctx.cycles
     | None -> ());
    let bp =
      if !bid >= 0 && !bid < nblocks then fp.Blockplan.fp_blocks.(!bid)
      else None
    in
    match bp with
    | None ->
      (* a dispatch target outside the plan table: reproduce [Hir.block]'s
         failure, unconverted (the reference raises it outside the
         instruction wrapper) *)
      invalid_arg
        (Printf.sprintf "Hir.block: no block %d in %s" !bid f.Hir.f_name)
    | Some bp ->
      let parts = bp.Blockplan.bp_parts in
      for k = 0 to Array.length parts - 1 do
        run_part (Array.unsafe_get parts k)
      done;
      (* terminators run on the exact path; the compare half of a fused
         compare-and-branch is wrapped like the instruction it was, the
         branch half is not (matching the reference's loop body) *)
      (match bp.Blockplan.bp_term with
       | Blockplan.Tgoto t ->
         Ctx.charge ctx (c.Cost.branch + fetch_penalty);
         bid := t
       | Blockplan.Tif (cond, a, rhs, bt, be, hint) ->
         let vb =
           match rhs with
           | Some rb -> regs.(rb)
           | None -> Exec.zero_like regs.(a)
         in
         let taken = Interp.eval_cond cond regs.(a) vb in
         branch_cost hint taken;
         bid := if taken then bt else be
       | Blockplan.Tcmp_if (op, d, x, y, cond, rhs, bt, be, hint) ->
         (try
            Ctx.charge ctx (Exec.binop_cost c op regs.(x));
            regs.(d) <- Exec.eval_binop_arm op regs.(x) regs.(y)
          with Invalid_argument msg -> raise (Exec.Segfault msg));
         let vb =
           match rhs with
           | Some rb -> regs.(rb)
           | None -> Exec.zero_like regs.(d)
         in
         let taken = Interp.eval_cond cond regs.(d) vb in
         branch_cost hint taken;
         bid := if taken then bt else be
       | Blockplan.Tret r ->
         Ctx.charge ctx c.Cost.int_alu;
         result := Option.map (fun r -> regs.(r)) r;
         (match !result with
          | Some v when fault_wrong_ret ->
            Faults.record Faults.Exec_wrong_ret;
            result := Some (Exec.perturb_value v)
          | Some _ | None -> ());
         running := false
       | Blockplan.Tthrow r ->
         Ctx.charge ctx c.Cost.throw_cost;
         raise (Ctx.App_exception (Value.to_int regs.(r)))
       | Blockplan.Tmissing msg -> invalid_arg msg)
  done;
  !result

let dispatcher plan =
  fun (ctx : Ctx.t) mid args ->
    match Hashtbl.find_opt plan.Blockplan.pl_funcs mid with
    | Some fp ->
      if ctx.Ctx.sample_period > 0 then
        (* profiling replay: the sampler inside [Ctx.charge] must observe
           every intermediate cycle value, which batched charging skips —
           take the reference per-instruction path for this call *)
        Exec.run_func ctx fp.Blockplan.fp_func args
      else run_plan ctx fp args
    | None -> Interp.interpret ctx mid args

(* One evaluation's replays (primary, corpus, retry) share one loaded
   value, so they share one plan build and nothing outlives the
   evaluation. *)
type loaded = {
  binary : Binary.t;
  mutable plan : Blockplan.t option;
}

let load binary = { binary; plan = None }

let install_engine engine ctx l =
  match engine with
  | Ref -> Exec.install ctx l.binary
  | Fused ->
    let plan =
      match l.plan with
      | Some plan -> plan
      | None ->
        let plan = Blockplan.build ctx.Ctx.cost l.binary in
        l.plan <- Some plan;
        plan
    in
    Ctx.set_dispatch ctx (dispatcher plan)
