(** HGraph construction: dex bytecode to the composite IR dialect.

    Splits the linear bytecode into basic blocks, converts instructions
    one-to-one into composite (implicitly checked) IR, and inserts a
    [SuspendCheck] in every natural-loop header as the Android compiler
    does.  Methods the Android compiler cannot process are rejected
    ({!Uncompilable}): in this model, methods with try/catch handlers, with
    pathologically many registers, or with huge bodies. *)

exception Uncompilable of string

val func : Repro_dex.Bytecode.dexfile -> int -> Hir.func
(** Build the graph for one method id.  @raise Uncompilable. *)

val compilable : Repro_dex.Bytecode.dexfile -> int -> bool
