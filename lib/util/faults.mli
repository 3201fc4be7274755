(** Deterministic, seeded fault injection for the robustness net.

    The paper's safety argument (§3.4) is that replay verification maps let
    the device {e discard} miscompiled binaries before users ever run them.
    This registry manufactures the failures that argument must survive:
    semantic miscompilations planted at compile time, replay-loader faults
    (corrupt or truncated snapshots, register-state damage) and executor
    faults (crashes, hangs, wrong return values).  Consumers —
    [Repro_lir.Compile], [Repro_capture.Replay], [Repro_lir.Exec] — query
    {!fire} at their injection points; the verification and quarantine
    machinery downstream must then catch every fault that matters.

    {b Determinism contract.}  Whether a fault fires is a pure function of
    [(seed, point, key)]: the configured seed, the injection point, and a
    caller-supplied integer identifying the site (a method id, a hash of a
    binary's code, a replay attempt number).  No shared mutable stream is
    involved, so fault decisions are independent of worker count,
    scheduling and cache state — a faulty search still returns
    byte-identical results for every [-j N] / [--no-cache] combination.

    {b Cost.}  When disabled — the default — every probe is a single
    [Atomic.get] returning [None]. *)

type point =
  | Miscompile         (** compile-time LIR mutation (semantic miscompilation) *)
  | Replay_collision   (** replay loader: page-restore collision corrupts a page *)
  | Replay_truncate    (** replay loader: snapshot tail page read as zeroes *)
  | Replay_regs        (** replay loader: captured register state corrupted *)
  | Exec_crash         (** executor: segfault on function entry *)
  | Exec_hang          (** executor: spin until the replay fuel runs out *)
  | Exec_wrong_ret     (** executor: perturb the function's return value *)
  | Store_corrupt      (** snapshot store: one byte of a stored page blob
                           read back flipped (caught by its checksum) *)
  | Store_truncate     (** snapshot store: a stored page blob read back
                           short, as after a partial flash write *)

val all_points : point list
(** Every injection point, in declaration order. *)

val point_name : point -> string
(** Stable spec/report name, e.g. ["miscompile"], ["replay-truncate"]. *)

type config = {
  fseed : int;                (** root of every fault decision *)
  frate : float;              (** firing probability per (point, key) site *)
  fonly : point list option;  (** [Some ps] restricts firing to [ps] *)
}

val parse_spec : string -> (config, string) result
(** Parse a [--faults] specification: [seed=N,rate=FLOAT][,only=p1+p2+...].
    [rate] must lie in [0, 1]; point names are those of {!point_name}.
    Omitted fields default to [seed=0], [rate=0.1], all points. *)

val spec_string : config -> string
(** Canonical round-trippable rendering of a configuration. *)

val enable : config -> unit
(** Arm the registry.  Also resets the injection counts. *)

val disable : unit -> unit
(** Disarm; every subsequent {!fire} is false.  Injection counts remain
    readable until the next {!enable}. *)

val active : unit -> bool

val armed : unit -> config option
(** The configuration the registry is armed with, if any. *)

val fire : point -> key:int -> bool
(** [fire p ~key] decides — purely from [(seed, p, key)] — whether the
    fault at point [p], site [key], fires under the current configuration.
    Always false when disabled, when [p] is filtered out by [fonly], or
    with probability [1 - frate] otherwise.  Does {e not} count an
    injection: call {!record} once the fault has actually been applied
    (a site with nothing to corrupt applies no fault). *)

val rng : point -> key:int -> Rng.t
(** A private random stream for shaping an injected fault (which branch to
    flip, which constant to corrupt), derived from [(seed, point, key)]
    but independent of the {!fire} decision.  Falls back to a fixed-seed
    stream when disabled (useful for exercising mutators directly). *)

val scoped : key:int -> (unit -> 'a) -> 'a
(** [scoped ~key f] runs [f] with the calling domain's fault scope set to
    [key]; replay-time and executor faults fire only inside such a scope,
    so online runs and reference (interpreted) replays are never damaged.
    The previous scope is restored when [f] returns or raises. *)

val scope_key : unit -> int option
(** The calling domain's current fault scope, if any. *)

val record : point -> unit
(** Count one applied injection: bumps the process-wide totals and the
    [faults.injected] trace counter. *)

val injected : unit -> int
(** Total faults applied since the last {!enable} (process-wide, all
    domains). *)

val injected_by_point : unit -> (point * int) list
(** Per-point totals, in {!all_points} order, zero entries included. *)

val hash_string : string -> int
(** Stable non-negative hash for deriving site keys from strings (binary
    digests, app names). *)

val combine : int -> int -> int
(** Mix two site-key components into one. *)
