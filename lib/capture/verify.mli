(** Verification maps (paper §3.4): the externally observable behaviour of
    a hot region, recorded from an interpreted replay — every memory word
    the region changed (object fields, array elements, statics) plus its
    return value.  Candidate binaries whose replay produces a different
    map are discarded as miscompiled. *)

type t = {
  writes : (int * int64) list;   (** address, final value; sorted *)
  ret : Repro_vm.Value.t option;
}

val diff_against_snapshot : Repro_vm.Exec_ctx.t -> Snapshot.t -> (int * int64) list
(** All heap/static words whose post-replay value differs from the captured
    original, in address order (program pages shadow boot-common ones;
    absent pages read as zero).  When the context's memory is a clone —
    the replay path — the originals are read from the template it was
    cloned from ({!Repro_os.Mem.cloned_from}) and only the pages the
    replay privatized are scanned: O(dirty pages), counted by the
    [verify.pages_scanned] trace counter, and never a template build.
    Any other memory is scanned in full against the snapshot's
    {!Snapshot.template} (counted by [verify.full_scans]). *)

val diff_against_snapshot_full : Repro_vm.Exec_ctx.t -> Snapshot.t -> (int * int64) list
(** Reference implementation: always scan every materialized heap/static
    page, against the same originals.  Used by tests to prove the
    dirty-page scan equivalent. *)

val diff_matches : Repro_vm.Exec_ctx.t -> Snapshot.t -> (int * int64) list -> bool
(** [diff_matches ctx snap writes] is
    [diff_against_snapshot ctx snap = writes] with an early exit on the
    first diverging word, without materializing the diff list. *)

(** A verification reference: what the {e reference} (interpreted)
    execution of one captured input does.  Most inputs finish and yield a
    verification map; adversarial corpus inputs may make the reference
    itself trap (e.g. a bounds exception on a non-power-of-two FFT size),
    and those are exactly the inputs that expose guard-stripping
    miscompiles. *)
type reference =
  | Ref_map of t            (** reference finished with this map *)
  | Ref_crash of string     (** reference trapped with this message *)

val collect :
  ?record_vcall:(Typeprof.site -> int -> unit) ->
  Repro_dex.Bytecode.dexfile -> Snapshot.t -> reference
(** Build one captured input's reference through an interpreted replay;
    the primary capture and every corpus entry get theirs here.  A
    reference trap is a legitimate [Ref_crash]; a caller that needs a map
    (the primary capture) rejects it itself.
    [record_vcall] feeds the replay's dispatch sites to a type profile,
    as in {!Repro_capture.Replay.run}.
    @raise Failure if the interpreted replay hangs. *)

type check_result =
  | Passed of int                 (** cycles of the verified replay *)
  | Wrong_output                  (** write set or return value diverged *)
  | Crashed of string             (** the candidate replay raised *)
  | Hung                          (** the candidate replay exceeded its fuel *)

val check :
  ?fuel:int ->
  ?faults_key:int ->
  Repro_dex.Bytecode.dexfile -> Snapshot.t -> reference ->
  Repro_lir.Blockexec.loaded -> check_result
(** Replay the snapshot under a loaded candidate binary and compare its
    behaviour with the reference.  Against a [Ref_map] the candidate
    passes when it finishes with the same return value and write set.
    Against a [Ref_crash] it passes only when it traps with the identical
    message ([Passed] carries its replay cycles); a candidate that
    {e finishes} on a trapping input executed past the reference's
    faulting access — the guard-stripping signature — and is
    [Wrong_output].  Partial write sets at the trap are not compared:
    legal optimizations may reorder stores ahead of the faulting access.
    Each check is one trace span, [verify] for a map and
    [verify:crash-ref] for a trap.

    [fuel] bounds the replay's cycle budget before it is declared [Hung]
    (default {!Replay.default_fuel}).

    [faults_key] is forwarded to {!Replay.run}: it opts the candidate
    replay (never the reference) into the fault-injection net, which is
    how the robustness tests prove that every injected replay/executor
    fault surfaces as a non-[Passed] verdict.  Anything but [Passed] means
    the binary must be discarded — under fault injection the pipeline
    {e quarantines} it (fitness = worst) after a one-retry check that
    separates transient replay faults from deterministic miscompiles. *)

val check_corpus :
  ?site:int ->
  Repro_dex.Bytecode.dexfile -> Snapshot.t -> reference ->
  (Snapshot.t * reference) list -> Repro_lir.Blockexec.loaded ->
  check_result * int
(** One verification pass over a capture corpus: {!check} on the primary
    snapshot, then on each (snapshot, reference) entry in order, stopping
    at the first failure.  Returns the verdict — the
    primary's [Passed cycles] when everything passed — and how many corpus
    entries were checked (counted by [verify.corpus_checks]; a failing
    entry also bumps [verify.corpus_kills]).  All replays share the
    loaded binary, so the fused engine plans it once.

    [site] opts the pass into fault injection: the primary runs under
    fault key [site] and entry [i] (from 1) under
    [Repro_util.Faults.combine site i]. *)
