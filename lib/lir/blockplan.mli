(** Decode-time basic-block analysis backing the block-fused executor
    {!Blockexec}.

    Per function, the plan records: straightened per-dispatch-target
    micro-op streams (Goto chains inlined), segments of straight-line code
    between barrier instructions each carrying a static worst-case cycle
    bound (so one headroom check against the fuel replaces the reference
    engine's per-instruction checks), and peephole-fused micro-ops for the
    guard+access / load+op / compare+branch pairs the translator emits.

    The analysis never changes semantics: fused ops charge the same costs
    in the same order as their expansion, barriers execute exactly, and
    malformed graphs are given poison plans that reproduce the reference
    failure at the same point.  Counters (emitted at build when tracing is
    enabled): [blockexec.blocks_formed], [blockexec.ops_fused],
    [blockexec.checks_hoisted], [blockexec.plan_builds].  There is no plan
    cache: {!Blockexec.load} builds a binary's plan at its first fused
    install and keeps it for the loaded value's lifetime. *)

type mop =
  | Op of Repro_hgraph.Hir.instr
  | Goto_seam of int * Repro_hgraph.Hir.bid
      (** straightened [Goto]: (branch + fetch-penalty charge, target bid) *)
  | Null_load_len of Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
  | Null_load_field of
      Repro_dex.Bytecode.elem_kind * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * int
  | Null_store_field of
      Repro_dex.Bytecode.elem_kind * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * int
  | Bounds_load_elem of
      Repro_dex.Bytecode.elem_kind * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
      (** (kind, dst, arr, idx, len) *)
  | Bounds_store_elem of
      Repro_dex.Bytecode.elem_kind * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
      (** (kind, arr, idx, src, len) *)
  | Load_elem_op of
      Repro_dex.Bytecode.elem_kind * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
      * Repro_dex.Ast.binop * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg
      (** (kind, load dst, arr, idx, op, binop dst, lhs, rhs) *)

val expand : mop -> Repro_hgraph.Hir.instr list
(** The instructions a micro-op was fused from, in program order ([[]]
    for a [Goto_seam]): what the executor's exact path runs. *)

type seg = {
  sg_ops : mop array;
  sg_bound : int;
      (** static worst-case cycles: [cycles + sg_bound <= fuel] at entry
          proves no interior charge can raise Timeout *)
  sg_insns : int;  (** underlying charge sites covered *)
}

type part =
  | Straight of seg
  | Barrier of Repro_hgraph.Hir.instr
      (** dynamic-cost / counter-observing instruction, executed exactly *)

type tplan =
  | Tgoto of Repro_hgraph.Hir.bid
  | Tif of
      Repro_dex.Bytecode.cond * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg option * Repro_hgraph.Hir.bid
      * Repro_hgraph.Hir.bid * Repro_hgraph.Hir.hint
  | Tcmp_if of
      Repro_dex.Ast.binop * Repro_hgraph.Hir.reg * Repro_hgraph.Hir.reg
      * Repro_hgraph.Hir.reg * Repro_dex.Bytecode.cond
      * Repro_hgraph.Hir.reg option * Repro_hgraph.Hir.bid
      * Repro_hgraph.Hir.bid * Repro_hgraph.Hir.hint
      (** fused [Binop (op, d, x, y); If (cond, d, rhs, ...)] *)
  | Tret of Repro_hgraph.Hir.reg option
  | Tthrow of Repro_hgraph.Hir.reg
  | Tmissing of string
      (** dispatch target absent from the graph; raises
          [Invalid_argument msg] at entry, matching [Hir.block] *)

type bplan = { bp_parts : part array; bp_term : tplan }

type fplan = {
  fp_func : Repro_hgraph.Hir.func;
  fp_fetch : int;  (** {!Exec.fetch_penalty_of} of the function *)
  fp_blocks : bplan option array;  (** indexed by bid; [None] = not a
      dispatch target (inlined into predecessors) or unreachable *)
  fp_regs_ok : bool;  (** plan-time proof that every register index the
      function mentions lies in [0, nregs): licenses the executor's
      unchecked register-file accesses on the fast path.  When [false]
      (malformed code), all segments run on the exact checked path. *)
}

type t = { pl_funcs : (int, fplan) Hashtbl.t }

val build : Repro_vm.Cost.model -> Binary.t -> t
(** Analyze every function of the binary.  Segment bounds are computed
    under the given cost model, which must be the one the executing
    context charges. *)

val reset_cache : unit -> unit
(** A no-op: there is no plan cache to reset.  Kept because the benchmark
    harness calls it between rounds. *)
