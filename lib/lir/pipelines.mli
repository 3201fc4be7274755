(** Canned optimization levels, standing in for LLVM's -O presets.

    None of them includes the two custom Android-specific passes
    (gc-check-elim, jni-to-intrinsic) or profile-guided devirtualization:
    those belong to the replay-driven search, which is how the GA finds
    headroom above -O3 (paper §5.1). *)

val o0 : Compile.spec
val o1 : Compile.spec
val o2 : Compile.spec
val o3 : Compile.spec

val all : (string * Compile.spec) list
(** Every preset with its canonical name, in ascending optimization order.
    The presets share leading genes, so compiling the family in order is a
    ready-made prefix-reuse workload for the stage cache. *)
