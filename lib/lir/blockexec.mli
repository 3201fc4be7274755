(** The block-fused LIR executor.

    Executes compiled binaries against the decode-time plans of
    {!Blockplan}: per-block micro-op streams with straightened goto chains,
    peephole-fused hot pairs, and straight-line segments that run on a
    local cycle accumulator after a single headroom check against the
    remaining fuel (hoisting the reference engine's per-instruction fuel
    checks).

    Contract: cycle accounting, observable memory, return values,
    profiler samples and crash/hang classification are bit-identical to
    {!Exec} — for conforming and non-conforming (guard-stripped,
    fault-injected, malformed) code alike.  The exact path, the barriers
    and the terminators are {!Exec}'s own code ({!Exec.exec_instr} and the
    terminator functions, with fused micro-ops run as their
    {!Blockplan.expand}ed instructions), so only what this engine adds —
    fusion, straightening, the headroom proof, the flush on exceptions
    and the fast-path twins — can break the contract.
    [test/test_blockexec.ml] and the differential property in
    [test/test_fuzz.ml] guard those in lockstep; [bench/main.exe] gates
    the speedup on FFT's replay. *)

type engine = Ref | Fused

val engine_name : engine -> string
val engine_of_string : string -> engine option

val default_engine : unit -> engine
(** Process-wide default used by {!Repro_capture.Replay.run} when no
    engine is passed explicitly; starts as [Fused]. *)

val set_default_engine : engine -> unit

val dispatcher :
  Blockplan.t ->
  (Repro_vm.Exec_ctx.t -> int -> Repro_vm.Value.t list ->
   Repro_vm.Value.t option)

type loaded
(** A binary loaded for replay.  Its {!Blockplan} is built on the first
    fused install and reused by every later install of the same value;
    the reference engine never builds one.  Mutable: use one value from
    one domain at a time. *)

val load : Binary.t -> loaded

val install_engine : engine -> Repro_vm.Exec_ctx.t -> loaded -> unit
(** [install_engine Ref] is {!Exec.install} on the loaded binary;
    [install_engine Fused] installs the fused dispatcher, planning the
    binary on its first fused install. *)
