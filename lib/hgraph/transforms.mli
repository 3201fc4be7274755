(** Dialect-agnostic IR transformations.

    These are the building blocks of both compilers in the system: the
    conservative Android pipeline ({!Android}) composes the safe ones with
    fixed parameters; the LLVM-style optimization space (lib/lir) re-exposes
    them with tunable parameters alongside its decomposed-dialect passes.
    Every function returns a new function graph; inputs are not mutated. *)

val const_fold : Hir.func -> Hir.func
(** Block-local constant folding, including branch folding of [If]
    terminators whose operands are known constants.  Division by a known
    zero is left in place (it must raise at runtime). *)

val simplify : Hir.func -> Hir.func
(** Algebraic instruction simplification: additive/multiplicative
    identities, multiplication by a power of two to shift, [x-x], double
    negation, comparison canonicalization.  Integer-only where value-exact;
    float identities are restricted to [+0.0]-safe cases. *)

val copy_prop : Hir.func -> Hir.func
(** Block-local copy propagation into operands. *)

val dce : Hir.func -> Hir.func
(** Liveness-based dead code elimination of pure instructions, plus removal
    of unreachable blocks. *)

val cse_local : Hir.func -> Hir.func
(** Block-local value numbering over pure instructions and memory loads
    (with a memory epoch invalidated by stores and calls).  Redundant
    composite accesses are replaced wholesale, which also removes their
    implicit checks — the sound equivalent of ART's GVN over checked
    HInstructions. *)

val load_store_elim : Hir.func -> Hir.func
(** Block-local store-to-load forwarding and dead-store elimination. *)

val licm : Hir.func -> Hir.func
(** Loop-invariant code motion of pure instructions into a freshly created
    preheader.  Memory operations are never moved (the unsafe variant in the
    LLVM space does that). *)

val simplify_cfg : Hir.func -> Hir.func
(** Remove unreachable blocks, thread trivial goto blocks, merge blocks with
    a unique predecessor/successor pair. *)

val predict_static : Hir.func -> Hir.func
(** Static branch prediction: back edges predicted taken. *)

val inline_calls :
  get_func:(int -> Hir.func option) -> threshold:int -> ?max_depth:int ->
  Hir.func -> Hir.func
(** Inline static calls whose callee body has at most [threshold]
    instructions.  [get_func] supplies callee graphs (and None for
    uncompilable callees).  Recursion is refused; [max_depth] bounds nested
    inlining (default 3). *)
