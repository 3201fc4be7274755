(** Replaying captured executions (paper §3.3, Figure 5).

    The loader rebuilds a partial Android process from the snapshot —
    mappings recreated, captured pages placed at their original addresses
    (collisions with the loader's own range are placed via the break-free
    relocation step), allocator and GC accounting restored — and then jumps
    into the hot region under one of three code versions: the original
    Android-compiled code, the interpreter, or a candidate optimized
    binary. *)

type code_version =
  | Android_code of Repro_lir.Blockexec.loaded  (** the device's default code *)
  | Interpreter                                 (** reference semantics (§3.4) *)
  | Optimized of Repro_lir.Blockexec.loaded     (** a candidate search binary *)
(** Compiled versions carry a loaded binary: replaying the same value
    again reuses the block plan its first fused replay built. *)

type outcome =
  | Finished of Repro_vm.Value.t option * int   (** result, cycles *)
  | Crashed of string
  | Hung                                        (** exceeded the replay fuel *)

type run = {
  outcome : outcome;
  ctx : Repro_vm.Exec_ctx.t;      (** post-replay state, for verification *)
}

val loader_collisions : Snapshot.t -> int
(** Captured pages, boot-common ones included, that land in the loader's
    own address range and so need the break-free relocation step. *)

val run :
  ?fuel:int ->
  ?engine:Repro_lir.Blockexec.engine ->
  ?record_vcall:(Typeprof.site -> int -> unit) ->
  ?faults_key:int ->
  Repro_dex.Bytecode.dexfile -> Snapshot.t -> code_version -> run
(** Default fuel: 200M cycles (a replay that runs 100x longer than any
    sensible region is declared hung, like a watchdog would).

    [engine] selects the executor for compiled code versions
    ([Android_code]/[Optimized]): the per-instruction reference engine
    ([Ref], {!Repro_lir.Exec}) or the block-fused engine ([Fused],
    {!Repro_lir.Blockexec}).  Defaults to
    [Repro_lir.Blockexec.default_engine ()].  The two are bit-identical in
    every observable — results, cycles, memory, failure classification —
    so the choice never affects figures, only wall-clock replay time.

    [faults_key] opts this replay into the fault-injection net
    ([Repro_util.Faults]): the replay runs inside a fault scope with that
    site key, arming the loader fault points (page-restore collision,
    truncated snapshot, register-state corruption) and the executor fault
    points (crash, hang-until-fuel, wrong return value).  Without it — the
    default, and always the case for reference interpreted replays and
    online runs — injected faults can never damage the replay.  Whether a
    fault fires is a pure function of the armed fault seed and
    [faults_key], so callers (see [Repro_core.Pipeline.verify_core]) vary
    the key per retry attempt to distinguish transient replay faults from
    deterministic miscompiles. *)

val cycles : run -> int option
(** Cycles if the replay finished. *)
