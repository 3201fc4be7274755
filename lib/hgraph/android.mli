(** The baseline Android compiler: HGraph plus a fixed, conservative
    optimization pipeline, "designed to be safe rather than highly
    optimizing" (paper §3.5).

    The real dex2oat backend registers 18 distinct optimizations; this
    model implements the data-flow core of that set on the composite
    dialect with deliberately conservative parameters (tiny inlining
    threshold, block-local value numbering, no loop restructuring). *)

val compile_method :
  Repro_dex.Bytecode.dexfile -> int -> Hir.func
(** Build + optimize one method: the "Android compiler" path.
    @raise Build.Uncompilable *)
