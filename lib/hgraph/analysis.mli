(** Dataflow analyses over the IR, shared by the Android pipeline and the
    LLVM-style pass library. *)

module ISet : Set.S with type elt = int

type live
(** Solved liveness of one function over one CFG: per-block register
    bitsets.  Sets are materialized only for the blocks asked about. *)

val liveness : Hir.func -> Repro_util.Cfg.t -> live
(** Backward may analysis over the blocks reachable in the CFG, which must
    describe the function as it is now. *)

val live_out : live -> int -> ISet.t
(** Registers live on exit from the block; empty for unreachable blocks. *)

val live_in : live -> int -> ISet.t
(** Registers live on entry to the block (read before any redefinition in
    it, or live out and not defined in it); empty for unreachable
    blocks. *)

val pressure : Hir.func -> int
(** Register pressure: the largest live-out set over all blocks.  Pure (no
    caching); see [Hir.f_pressure] for the per-function cache that
    [Repro_lir.Binary.create] fills exactly once, before a binary can be
    shared across evaluation domains. *)
