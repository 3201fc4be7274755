(** Hot-region detection (paper §3.1, Algorithm 1).

    A method is *replayable* when its behaviour is fully determined by its
    memory state: no I/O natives, no non-determinism (clock/PRNG), no JNI
    without an intrinsic replacement, no exceptions.  A region rooted at a
    method is replayable when every method transitively reachable from it
    is.  The *compilable region* is the root plus its transitively
    compilable callees; the hot region is the candidate maximizing the
    exclusive profile time summed over its compilable region. *)

val replayable : Repro_dex.Bytecode.dexfile -> int -> bool
(** One method in isolation. *)

val region_replayable : Repro_dex.Bytecode.dexfile -> int -> bool

val compilable_region : Repro_dex.Bytecode.dexfile -> int -> int list
(** Algorithm 1's [compilableRegion]: root + transitively compilable
    callees (exploration cut at uncompilable methods). *)

val hot_region : Repro_dex.Bytecode.dexfile -> Profile.t -> int option
(** The method with the biggest replayable, compilable region. *)
