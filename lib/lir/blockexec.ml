(* The block-fused LIR executor.

   Runs the same decomposed-dialect graphs as [Exec], against the plans
   precomputed by [Blockplan], under a strict bit-identical contract: cycle
   accounting, observable memory, return values and crash/hang
   classification all match the reference engine exactly, for conforming
   *and* non-conforming (guard-stripped, fault-injected, malformed) code.

   The semantics are not copied here: function entry, barriers,
   terminators and the whole exact path run [Exec]'s own functions, a
   fused micro-op on the exact path running as the instructions it was
   fused from ([Blockplan.expand]).  What this module adds is less
   bookkeeping per instruction, and that is what the differential
   campaign in [test_blockexec] guards:

   - straight-line segments whose static worst-case bound fits in the
     remaining fuel run on a local cycle accumulator — one headroom
     comparison replaces every per-instruction fuel check ([Ctx.charge]
     raises on [cycles > fuel], so [cycles + bound <= fuel] at entry proves
     no interior charge can raise Timeout).  The accumulator is flushed on
     segment exit and on any exception, so crash-time cycle counts are
     exact;

   - on that fast path, [exec_mop_fast] twins of the hot instructions and
     of the fused pairs charge the same costs in the same order as the
     reference — fusion saves dispatch, never accounting;

   - straightened gotos charge their branch cost inline instead of going
     around the dispatch loop.

   Barrier instructions (calls, allocation, suspend checks, Sys.clock) and
   terminators always run exactly: their costs are dynamic or their
   callees can observe the cycle counter mid-flight.

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
  let regs = Exec.frame f args in
  let wrong_ret = Exec.fault_entry ctx f in
  let fetch = fp.Blockplan.fp_fetch in
  (* Pending cycles of the segment currently on the fast path (zero
     elsewhere).  Flushed through [Ctx.charge] on segment exit and on any
     exception; the headroom proof guarantees the flush cannot raise. *)
  let acc = ref 0 in
  let flush () =
    if !acc <> 0 then begin
      let n = !acc in
      acc := 0;
      Ctx.charge ctx n
    end
  in
  let step i = Exec.exec_instr ctx regs i in
  (* The exact path is the reference: a straightened goto is the charge
     and block entry the reference's dispatch loop performs, and a fused
     pair runs as the two instructions it was fused from. *)
  let exec_mop_exact m =
    match m with
    | Blockplan.Op i -> step i
    | Blockplan.Goto_seam (n, t) ->
      Ctx.charge ctx n;
      (match !Exec.block_hook with
       | Some h -> h f.Hir.f_mid t ctx.Ctx.cycles
       | None -> ())
    | m -> List.iter step (Blockplan.expand m)
  in
  (* Fast-path twins of [Exec.exec_instr]'s hot cases and of the fused
     pairs: identical effects and charge order, with each charge an
     accumulator add instead of a fuel-checked [Ctx.charge].  They convert
     no exception themselves, so they access memory through [Value.load],
     [Value.store] and [Mem] directly: [exec_seg_fast]'s one handler
     around the segment turns Invalid_argument (from a value accessor or
     an unmapped address) into Segfault before the accumulator flush,
     which is observably the reference's per-access conversion.  Shared
     subexpressions of a fused pair (the guarded pointer, the
     bounds-checked index) are reused only where the registers provably
     cannot have changed between the halves. *)
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
      if Exec.as_ref (rget regs r) = 0 then
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
        Ctx.elem_addr (Exec.as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      rset regs d (Value.load mem k addr)
    | Blockplan.Op (Hir.StoreElem (_, a, i, v)) ->
      acc := !acc + c.Cost.store;
      let addr =
        Ctx.elem_addr (Exec.as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      Value.store mem addr (rget regs v)
    | Blockplan.Op (Hir.LoadLen (d, a)) ->
      acc := !acc + c.Cost.load;
      let p = Exec.as_ref (rget regs a) in
      rset regs d (Vint (Mem.read_int mem p))
    | Blockplan.Op (Hir.LoadField (k, d, o, off)) ->
      acc := !acc + c.Cost.load;
      let p = Exec.as_ref (rget regs o) in
      rset regs d (Value.load mem k (Ctx.field_addr p off))
    | Blockplan.Op (Hir.StoreField (_, o, v, off)) ->
      acc := !acc + c.Cost.store;
      Value.store mem (Ctx.field_addr (Exec.as_ref (rget regs o)) off)
        (rget regs v)
    | Blockplan.Op (Hir.SGet (k, d, slot)) ->
      acc := !acc + c.Cost.load;
      rset regs d (Value.load mem k (Ctx.static_addr ctx slot))
    | Blockplan.Op (Hir.SPut (_, slot, v)) ->
      acc := !acc + c.Cost.store;
      Value.store mem (Ctx.static_addr ctx slot) (rget regs v)
    | Blockplan.Op i ->
      (* The unspecialized ops ([LoadClass], non-clock [CallNative]) run
         as the reference instruction, charging [ctx] directly while
         earlier charges of the segment still sit in [acc].  Nothing can
         tell the two apart: the headroom proof means no charge inside the
         segment can raise Timeout, sampling replays never reach
         [run_plan], and the only mid-segment reader of the counter (the
         block hook at a seam) reads [ctx.cycles + acc]. *)
      step i
    | Blockplan.Goto_seam (n, t) ->
      acc := !acc + n;
      (match !Exec.block_hook with
       | Some h -> h f.Hir.f_mid t (ctx.Ctx.cycles + !acc)
       | None -> ())
    | Blockplan.Null_load_len (d, a) ->
      acc := !acc + c.Cost.null_check;
      let p = Exec.as_ref (rget regs a) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.load;
      rset regs d (Vint (Mem.read_int mem p))
    | Blockplan.Null_load_field (k, d, o, off) ->
      acc := !acc + c.Cost.null_check;
      let p = Exec.as_ref (rget regs o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.load;
      rset regs d (Value.load mem k (Ctx.field_addr p off))
    | Blockplan.Null_store_field (_, o, v, off) ->
      acc := !acc + c.Cost.null_check;
      let p = Exec.as_ref (rget regs o) in
      if p = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
      acc := !acc + c.Cost.store;
      Value.store mem (Ctx.field_addr p off) (rget regs v)
    | Blockplan.Bounds_load_elem (k, d, a, i, l) ->
      acc := !acc + c.Cost.bounds_check;
      let idx = Value.to_int (rget regs i)
      and len = Value.to_int (rget regs l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      acc := !acc + c.Cost.load;
      let addr = Ctx.elem_addr (Exec.as_ref (rget regs a)) idx in
      rset regs d (Value.load mem k addr)
    | Blockplan.Bounds_store_elem (_, a, i, v, l) ->
      acc := !acc + c.Cost.bounds_check;
      let idx = Value.to_int (rget regs i)
      and len = Value.to_int (rget regs l) in
      if idx < 0 || idx >= len then
        raise (Ctx.App_exception Ctx.exc_out_of_bounds);
      acc := !acc + c.Cost.store;
      let addr = Ctx.elem_addr (Exec.as_ref (rget regs a)) idx in
      Value.store mem addr (rget regs v)
    | Blockplan.Load_elem_op (k, dl, a, i, op, d2, x, y) ->
      acc := !acc + c.Cost.load;
      let addr =
        Ctx.elem_addr (Exec.as_ref (rget regs a)) (Value.to_int (rget regs i))
      in
      rset regs dl (Value.load mem k addr);
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
     without the proof every segment takes the exact path, whose checked
     accesses reproduce the reference's out-of-range failure bit for
     bit. *)
  let regs_ok = fp.Blockplan.fp_regs_ok in
  let run_part p =
    match p with
    | Blockplan.Straight sg ->
      if regs_ok && ctx.Ctx.cycles + sg.Blockplan.sg_bound <= ctx.Ctx.fuel
      then exec_seg_fast sg
      else Array.iter exec_mop_exact sg.Blockplan.sg_ops
    | Blockplan.Barrier i -> step i
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
      (match bp.Blockplan.bp_term with
       | Blockplan.Tgoto t ->
         Ctx.charge ctx (c.Cost.branch + fetch);
         bid := t
       | Blockplan.Tif (cond, a, rhs, bt, be, hint) ->
         bid := Exec.exec_if ctx regs ~fetch cond a rhs bt be hint
       | Blockplan.Tcmp_if (op, d, x, y, cond, rhs, bt, be, hint) ->
         (* the compare half inline, converted like the instruction it
            was, so a branch allocates no [Binop] record; the branch half
            is the reference terminator *)
         (try
            Ctx.charge ctx (Exec.binop_cost c op regs.(x));
            regs.(d) <- Exec.eval_binop_arm op regs.(x) regs.(y)
          with Invalid_argument msg -> raise (Exec.Segfault msg));
         bid := Exec.exec_if ctx regs ~fetch cond d rhs bt be hint
       | Blockplan.Tret r ->
         result := Exec.exec_ret ctx regs ~wrong_ret r;
         running := false
       | Blockplan.Tthrow r -> Exec.exec_throw ctx regs r
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
