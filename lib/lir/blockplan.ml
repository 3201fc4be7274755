(* Decode-time basic-block analysis for the block-fused execution engine
   (ROADMAP item 2; see the guillotine EVM analysis notes in SNIPPETS.md).

   For every function of a compiled binary we precompute, once per binary:

   - a *plan* per dispatch-target block (the entry block, conditional-branch
     targets, and straightening cut points).  Goto chains are straightened
     into the plan, so unconditional control transfers cost a single
     micro-op instead of a dispatch round trip;

   - a split of each plan's straight-line code into *segments* separated by
     barrier instructions (calls, allocation, suspend checks — anything
     whose cycle charge is dynamic or whose callee can observe the cycle
     counter).  Each segment carries a static worst-case cycle bound, the
     moral equivalent of the BEGINBLOCK gas/stack rollup: at run time one
     headroom comparison against the remaining fuel replaces the
     per-instruction fuel checks of the reference executor;

   - peephole-fused micro-ops for the hot pairs the translator emits
     (guard+access, load+op) and a fused compare-and-branch terminator.
     Fused ops charge the same costs in the same order as their unfused
     expansion — fusion only removes dispatch, never accounting.

   The analysis is pure bookkeeping: the executor in [Blockexec] remains
   bit-identical to [Exec] on cycle accounting, observable memory, return
   values and crash/hang classification.  Plans are immutable after
   construction; [Blockexec.load] gives each one the lifetime of the loaded
   binary it was built for. *)

module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Hir = Repro_hgraph.Hir
module Cost = Repro_vm.Cost
module Trace = Repro_util.Trace

(* ------------------------------ micro-ops --------------------------- *)

type mop =
  | Op of Hir.instr
  (* a straightened [Goto]: charge (branch + fetch penalty) and fall
     through into the inlined target block's code.  Carries the target bid
     so the lockstep block hook can fire at the seam exactly where the
     reference engine re-enters its dispatch loop. *)
  | Goto_seam of int * Hir.bid
  (* GuardNull a; LoadLen (d, a) *)
  | Null_load_len of Hir.reg * Hir.reg
  (* GuardNull o; LoadField (k, d, o, off) *)
  | Null_load_field of B.elem_kind * Hir.reg * Hir.reg * int
  (* GuardNull o; StoreField (k, o, v, off) *)
  | Null_store_field of B.elem_kind * Hir.reg * Hir.reg * int
  (* GuardBounds (i, l); LoadElem (k, d, a, i) *)
  | Bounds_load_elem of B.elem_kind * Hir.reg * Hir.reg * Hir.reg * Hir.reg
  (* GuardBounds (i, l); StoreElem (k, a, i, v) *)
  | Bounds_store_elem of B.elem_kind * Hir.reg * Hir.reg * Hir.reg * Hir.reg
  (* LoadElem (k, dl, a, i); Binop (op, d2, x, y) with x = dl or y = dl *)
  | Load_elem_op of
      B.elem_kind * Hir.reg * Hir.reg * Hir.reg
      * Ast.binop * Hir.reg * Hir.reg * Hir.reg

type seg = {
  sg_ops : mop array;
  sg_bound : int;
  (* static worst-case cycles of the whole segment: if
     [cycles + sg_bound <= fuel] holds at segment entry, no charge inside
     the segment can raise Timeout, so the per-instruction fuel checks are
     provably dead and the segment runs on a local accumulator *)
  sg_insns : int;
  (* underlying charge sites covered (fused micro-ops count each half) —
     the number of reference-engine fuel checks the headroom test hoists,
     minus the one test itself *)
}

type part =
  | Straight of seg
  | Barrier of Hir.instr
  (* executed exactly (per-charge fuel checks): calls (callees observe the
     cycle counter), allocation (dynamic or dx-dependent cost, can GC/OOM),
     suspend checks (GC pause cost depends on live heap), Nclock (reads the
     cycle counter), and composite-dialect instructions (which the
     reference executor rejects; kept so the failure reproduces exactly) *)

type tplan =
  | Tgoto of Hir.bid                      (* straightening cut point *)
  | Tif of B.cond * Hir.reg * Hir.reg option * Hir.bid * Hir.bid * Hir.hint
  (* Binop (op, d, x, y); If (cond, d, rhs, bt, be, hint) — the fused
     compare-and-branch pair *)
  | Tcmp_if of
      Ast.binop * Hir.reg * Hir.reg * Hir.reg
      * B.cond * Hir.reg option * Hir.bid * Hir.bid * Hir.hint
  | Tret of Hir.reg option
  | Tthrow of Hir.reg
  | Tmissing of string
  (* dispatch target without a block: raising [Invalid_argument msg] at
     block entry reproduces [Hir.block]'s failure at the same point *)

type bplan = {
  bp_parts : part array;
  bp_term : tplan;
}

type fplan = {
  fp_func : Hir.func;
  fp_fetch : int;                         (* Exec.fetch_penalty_of *)
  fp_blocks : bplan option array;         (* indexed by bid *)
  fp_regs_ok : bool;
  (* every register index the function mentions lies in [0, nregs): the
     fast path may use unchecked register-file accesses.  Functions that
     fail the proof (malformed genomes) run all segments on the exact
     path, whose checked accesses reproduce the reference failure. *)
}

type t = { pl_funcs : (int, fplan) Hashtbl.t }

(* ------------------------- static cost bounds ----------------------- *)

(* Worst case over the runtime operand types [Exec.binop_cost] can see. *)
let max_binop_cost (c : Cost.model) op =
  match op with
  | Ast.Add | Ast.Sub -> max c.Cost.float_alu c.Cost.int_alu
  | Ast.Mul -> max c.Cost.float_mul c.Cost.int_mul
  | Ast.Div | Ast.Rem -> max c.Cost.float_div c.Cost.int_div
  | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr -> c.Cost.int_alu
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
    max c.Cost.float_alu c.Cost.int_alu
  | Ast.Land | Ast.Lor -> c.Cost.int_alu

let is_barrier (i : Hir.instr) =
  match i with
  | Hir.NewObj _ | Hir.NewArr _ | Hir.CallStatic _ | Hir.CallVirtual _
  | Hir.SuspendCheck -> true
  | Hir.CallNative (_, B.Nclock, _, _) -> true
  | Hir.CallNative _ -> false
  | Hir.ALoadC _ | Hir.AStoreC _ | Hir.ArrLenC _ | Hir.IGetC _
  | Hir.IPutC _ -> true
  | Hir.Const _ | Hir.Move _ | Hir.Binop _ | Hir.Fma _ | Hir.Select _
  | Hir.Unop _ | Hir.I2f _ | Hir.F2i _ | Hir.GuardNull _ | Hir.GuardBounds _
  | Hir.GuardDivZero _ | Hir.LoadElem _ | Hir.StoreElem _ | Hir.LoadLen _
  | Hir.LoadField _ | Hir.StoreField _ | Hir.LoadClass _ | Hir.SGet _
  | Hir.SPut _ -> false

(* Static upper bound on what one non-barrier instruction charges. *)
let instr_bound (c : Cost.model) (i : Hir.instr) =
  match i with
  | Hir.Const _ -> c.Cost.const
  | Hir.Move _ -> c.Cost.move
  | Hir.Binop (op, _, _, _) -> max_binop_cost c op
  | Hir.Fma _ -> c.Cost.float_mul
  | Hir.Select _ -> c.Cost.int_alu
  | Hir.Unop (Ast.Neg, _, _) -> max c.Cost.int_alu c.Cost.float_alu
  | Hir.Unop (Ast.Not, _, _) -> c.Cost.int_alu
  | Hir.I2f _ | Hir.F2i _ -> c.Cost.float_conv
  | Hir.GuardNull _ | Hir.GuardDivZero _ -> c.Cost.null_check
  | Hir.GuardBounds _ -> c.Cost.bounds_check
  | Hir.LoadElem _ | Hir.LoadLen _ | Hir.LoadField _ | Hir.LoadClass _
  | Hir.SGet _ -> c.Cost.load
  | Hir.StoreElem _ | Hir.StoreField _ | Hir.SPut _ -> c.Cost.store
  | Hir.CallNative (_, n, _, mode) ->
    (* Jni.call charges transition + native work; both are static per
       (native, mode), so non-Nclock natives can stay inside a segment *)
    (match mode with
     | Hir.Jni -> c.Cost.jni_call
     | Hir.Intrinsic -> c.Cost.intrinsic_call)
    + Cost.native_work n
  | Hir.NewObj _ | Hir.NewArr _ | Hir.CallStatic _ | Hir.CallVirtual _
  | Hir.SuspendCheck | Hir.ALoadC _ | Hir.AStoreC _ | Hir.ArrLenC _
  | Hir.IGetC _ | Hir.IPutC _ ->
    invalid_arg "Blockplan.instr_bound: barrier instruction"

let mop_bound c = function
  | Op i -> instr_bound c i
  | Goto_seam (n, _) -> n
  | Null_load_len _ -> c.Cost.null_check + c.Cost.load
  | Null_load_field _ -> c.Cost.null_check + c.Cost.load
  | Null_store_field _ -> c.Cost.null_check + c.Cost.store
  | Bounds_load_elem _ -> c.Cost.bounds_check + c.Cost.load
  | Bounds_store_elem _ -> c.Cost.bounds_check + c.Cost.store
  | Load_elem_op (_, _, _, _, op, _, _, _) ->
    c.Cost.load + max_binop_cost c op

let mop_insns = function
  | Op _ | Goto_seam _ -> 1
  | Null_load_len _ | Null_load_field _ | Null_store_field _
  | Bounds_load_elem _ | Bounds_store_elem _ | Load_elem_op _ -> 2

(* ----------------------------- fusion ------------------------------- *)

(* Peephole over one block's instruction list.  Patterns mirror exactly
   what [Translate] emits for decomposed accesses, so the pairs are
   adjacent in practice; fusion is suppressed across block seams (a branch
   can land between the halves) because this runs strictly per block. *)
let fuse_block ~fused insns =
  let rec go acc = function
    | Hir.GuardNull r :: Hir.LoadLen (d, a) :: rest when a = r ->
      incr fused;
      go (Null_load_len (d, a) :: acc) rest
    | Hir.GuardNull r :: Hir.LoadField (k, d, o, off) :: rest when o = r ->
      incr fused;
      go (Null_load_field (k, d, o, off) :: acc) rest
    | Hir.GuardNull r :: Hir.StoreField (k, o, v, off) :: rest when o = r ->
      incr fused;
      go (Null_store_field (k, o, v, off) :: acc) rest
    | Hir.GuardBounds (i, l) :: Hir.LoadElem (k, d, a, i2) :: rest
      when i2 = i ->
      incr fused;
      go (Bounds_load_elem (k, d, a, i, l) :: acc) rest
    | Hir.GuardBounds (i, l) :: Hir.StoreElem (k, a, i2, v) :: rest
      when i2 = i ->
      incr fused;
      go (Bounds_store_elem (k, a, i2, v, l) :: acc) rest
    | Hir.LoadElem (k, d, a, i) :: Hir.Binop (op, d2, x, y) :: rest
      when x = d || y = d ->
      incr fused;
      go (Load_elem_op (k, d, a, i, op, d2, x, y) :: acc) rest
    | i :: rest -> go (Op i :: acc) rest
    | [] -> List.rev acc
  in
  go [] insns

(* The inverse of [fuse_block]: the instructions a micro-op was fused
   from, in order.  A straightened goto expands to no instruction (its
   charge and block entry are the executor's business). *)
let expand = function
  | Op i -> [ i ]
  | Goto_seam _ -> []
  | Null_load_len (d, a) -> [ Hir.GuardNull a; Hir.LoadLen (d, a) ]
  | Null_load_field (k, d, o, off) ->
    [ Hir.GuardNull o; Hir.LoadField (k, d, o, off) ]
  | Null_store_field (k, o, v, off) ->
    [ Hir.GuardNull o; Hir.StoreField (k, o, v, off) ]
  | Bounds_load_elem (k, d, a, i, l) ->
    [ Hir.GuardBounds (i, l); Hir.LoadElem (k, d, a, i) ]
  | Bounds_store_elem (k, a, i, v, l) ->
    [ Hir.GuardBounds (i, l); Hir.StoreElem (k, a, i, v) ]
  | Load_elem_op (k, dl, a, i, op, d2, x, y) ->
    [ Hir.LoadElem (k, dl, a, i); Hir.Binop (op, d2, x, y) ]

(* --------------------------- straightening -------------------------- *)

(* Hard limits in the spirit of the guillotine analysis: bound the work and
   memory of any single plan up front instead of trusting input shape.
   Chains cut here end in [Tgoto], which dispatches to the target's own
   plan — correctness never depends on how far straightening went. *)
let max_chain = 8
let max_stream = 512

let block_missing_msg (f : Hir.func) bid =
  Printf.sprintf "Hir.block: no block %d in %s" bid f.f_name

(* Collect the straightened micro-op stream starting at [bid0] and the
   terminator that ends it. *)
let collect_stream c fetch ~fused (f : Hir.func) bid0 =
  let rev_stream = ref [] in
  let count = ref 0 in
  let rec walk bid visited =
    match Hashtbl.find_opt f.Hir.f_blocks bid with
    | None -> Tmissing (block_missing_msg f bid)
    | Some b ->
      let mops = fuse_block ~fused b.Hir.insns in
      rev_stream := List.rev_append mops !rev_stream;
      count := !count + List.length mops;
      (match b.Hir.term with
       | Hir.Goto t
         when (not (List.mem t visited))
              && List.length visited < max_chain
              && !count < max_stream
              && Hashtbl.mem f.Hir.f_blocks t ->
         rev_stream :=
           Goto_seam (c.Cost.branch + fetch, t) :: !rev_stream;
         walk t (t :: visited)
       | Hir.Goto t -> Tgoto t
       | Hir.If (cond, a, rhs, bt, be, hint) ->
         (* compare-and-branch fusion: the stream's last micro-op computes
            the tested register.  The binop moves into the terminator and
            is charged exactly there, preserving the reference's
            charge order. *)
         (match !rev_stream with
          | Op (Hir.Binop (op, d, x, y)) :: rest when d = a ->
            incr fused;
            rev_stream := rest;
            Tcmp_if (op, d, x, y, cond, rhs, bt, be, hint)
          | _ -> Tif (cond, a, rhs, bt, be, hint))
       | Hir.Ret r -> Tret r
       | Hir.ThrowT r -> Tthrow r)
  in
  let term = walk bid0 [ bid0 ] in
  (List.rev !rev_stream, term)

(* Split a micro-op stream into segments at barrier instructions and attach
   the static headroom bounds. *)
let split_parts c ~hoisted mops =
  let parts = ref [] in
  let cur = ref [] in
  let flush () =
    match !cur with
    | [] -> ()
    | ops ->
      let ops = Array.of_list (List.rev ops) in
      let bound = Array.fold_left (fun a m -> a + mop_bound c m) 0 ops in
      let insns = Array.fold_left (fun a m -> a + mop_insns m) 0 ops in
      hoisted := !hoisted + max 0 (insns - 1);
      cur := [];
      parts := Straight { sg_ops = ops; sg_bound = bound; sg_insns = insns }
               :: !parts
  in
  List.iter
    (fun m ->
       match m with
       | Op i when is_barrier i ->
         flush ();
         parts := Barrier i :: !parts
       | m -> cur := m :: !cur)
    mops;
  flush ();
  Array.of_list (List.rev !parts)

let targets_of_term = function
  | Tgoto t -> [ t ]
  | Tif (_, _, _, bt, be, _) | Tcmp_if (_, _, _, _, _, _, bt, be, _) ->
    [ bt; be ]
  | Tret _ | Tthrow _ | Tmissing _ -> []

(* Plan-time range proof backing [fp_regs_ok]: the executor's register
   file has [max nregs 1] slots, so if every use and def across every
   block (fused micro-ops reference the same registers as their unfused
   halves) is inside [0, nregs), no fast-path access can be out of
   bounds. *)
let regs_in_range (f : Hir.func) =
  let limit = max f.Hir.f_nregs 1 in
  let ok r = r >= 0 && r < limit in
  Hashtbl.fold
    (fun _ b acc ->
       acc
       && List.for_all
            (fun i ->
               List.for_all ok (Hir.uses_of i)
               && (match Hir.def_of i with Some d -> ok d | None -> true))
            b.Hir.insns
       && List.for_all ok (Hir.uses_of_term b.Hir.term))
    f.Hir.f_blocks true

(* Build plans for every dispatch-target block reachable from the entry:
   the entry itself, conditional-branch targets, and straightening cut
   points.  Blocks only ever reached by straightened gotos need no plan of
   their own (their code is inlined into their predecessors' streams). *)
let build_fplan c (f : Hir.func) ~blocks_formed ~fused ~hoisted =
  let fetch = Exec.fetch_penalty_of f in
  let nb = max f.Hir.f_next_bid (f.Hir.f_entry + 1) in
  let blocks = Array.make nb None in
  let pending = Queue.create () in
  let want bid =
    if bid >= 0 && bid < nb then Queue.add bid pending
  in
  want f.Hir.f_entry;
  while not (Queue.is_empty pending) do
    let bid = Queue.pop pending in
    if blocks.(bid) = None then begin
      let stream, term = collect_stream c fetch ~fused f bid in
      let bp = { bp_parts = split_parts c ~hoisted stream; bp_term = term } in
      blocks.(bid) <- Some bp;
      incr blocks_formed;
      List.iter want (targets_of_term term)
    end
  done;
  { fp_func = f; fp_fetch = fetch; fp_blocks = blocks;
    fp_regs_ok = regs_in_range f }

(* ------------------------------- build ------------------------------ *)

let build cost binary =
  let blocks_formed = ref 0 and fused = ref 0 and hoisted = ref 0 in
  let pl_funcs = Hashtbl.create 16 in
  List.iter
    (fun mid ->
       match Binary.find binary mid with
       | Some f ->
         Hashtbl.replace pl_funcs mid
           (build_fplan cost f ~blocks_formed ~fused ~hoisted)
       | None -> ())
    (Binary.mids binary);
  Trace.incr "blockexec.plan_builds";
  Trace.add "blockexec.blocks_formed" !blocks_formed;
  Trace.add "blockexec.ops_fused" !fused;
  Trace.add "blockexec.checks_hoisted" !hoisted;
  { pl_funcs }

let reset_cache () = ()
