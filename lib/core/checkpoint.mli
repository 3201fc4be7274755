(** Crash-safe search checkpoints: a record/replay journal for the GA.

    The pipeline's searches are deterministic by construction — every
    batch's tasks and outcomes are a pure function of the run
    configuration — so a checkpoint does not need to serialize GA
    internals (population, selection state, halting counters).  It records
    what was {e observed}: for every completed evaluation batch, the RNG
    cursor at the moment the batch was requested and each task's
    [(evaluation index, canonical genome, deterministic core result)].  A
    resumed run re-executes the same search code and serves recorded
    batches from the journal (validating cursor, indices and canons as it
    goes), then continues live from the first unrecorded batch — producing
    a history digest byte-identical to an uninterrupted run at any
    [-j]/[--no-cache] setting.

    On disk a checkpoint is a text image written with
    {!Repro_os.Storage.save_text}: checksummed store pages in a
    deterministic layout, via a temp file and atomic rename — a crash
    mid-save leaves the previous checkpoint intact, and the same state
    always produces the same bytes.  Damage is detected by the store's
    per-page checksums (plus a whole-journal digest) and degrades to a
    cold start, routed through the quarantine policy by the caller. *)

(** The deterministic part of one evaluation (everything but measurement
    noise): what the eval pool memoizes and the journal records.  Defined
    here, below the pipeline, and re-exported as [Pipeline.eval_core]. *)
type core =
  | Core_measured of { cycles : int; size : int; key : string }
  | Core_compile_failed of string
  | Core_compile_timeout
  | Core_crashed of string
  | Core_hung
  | Core_wrong_output
  | Core_quarantined of string
  (** persistently failed verification under fault injection (failed, then
      failed the retry too): discarded as a deterministic miscompile.
      Only produced while [Repro_util.Faults] is armed. *)

type task = {
  t_ev_index : int;
  t_canon : string;      (** canonical genome (memo identity) *)
  t_core : core;
}

type batch = {
  b_cursor : int64;      (** RNG cursor when the batch was requested *)
  b_tasks : task list;   (** in task order *)
}

type t = {
  fingerprint : string;
  (** identity of the run configuration (app, seed, GA config, corpus,
      warm-start seeds); resume refuses journals from a different
      configuration *)
  batches : batch list;              (** chronological *)
  quarantine : (string * string * int) list;
  (** the run's quarantine log at save time: (key, reason, count) *)
}

exception Injected_abort
(** Raised by the simulated-crash hook (the [--ckpt-abort] flag and the
    kill/resume tests) immediately {e after} a checkpoint write — the
    process dies exactly where a real kill between batches would. *)

val save : t -> string -> unit
(** Serialize to [file] atomically (temp file + rename).  Byte-
    deterministic: equal values produce equal files. *)

val load :
  string -> [ `Absent | `Loaded of t * string list | `Damaged of string ]
(** Read a checkpoint back.  [`Absent] when [file] does not exist;
    [`Loaded (t, warnings)] on success (warnings from the underlying
    store load, normally empty); [`Damaged reason] when the store, the
    page checksums, the journal digest or the text parse reject the file
    — the caller warns, quarantines the file key and starts cold. *)
