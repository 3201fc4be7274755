(** Multi-app optimization service: N concurrent searches multiplexed
    over the process's one evaluation domain pool.

    The paper's deployment is a long-lived service: many applications'
    searches in flight at once, sharing the device's compile/verify
    capacity.  This module is that scheduler.  Each submitted request
    becomes a {e job} — its own capture, evaluation environment,
    quarantine log and (optionally) checkpoint file — and {!drive}
    round-robins single evaluation batches across all admitted jobs: one
    batch per job per round, so every tenant makes progress at the same
    batch rate regardless of arrival order (fairness is structural, and
    reported as a spread you can gate on).

    Concurrency model: jobs take turns on the {e calling} domain; what is
    parallel is each batch's compile/verify work, fanned out over
    {!Repro_search.Evalpool}'s process-wide domain pool, which every
    tenant shares and no scheduler owns.  Admission control bounds the
    working set ([max_active]) and a bounded submission queue provides
    backpressure ([`Rejected]).

    Determinism: each job's search is exactly a standalone
    {!Pipeline.run_session} of {!Pipeline.start} with the same
    app/seed/config — same draws, same evaluation indices, same
    {!Pipeline.search_digest} — no matter how many other tenants run
    beside it, in what order they were submitted, or whether the job was
    killed and resumed from its checkpoint. *)

type request = Pipeline.request
(** A search request; admission runs {!Pipeline.start} on it. *)

val request :
  ?seed:int -> ?cfg:Repro_search.Ga.config -> ?corpus_k:int ->
  ?checkpoint:string -> Repro_apps.Registry.t -> request
(** {!Pipeline.request}. *)

type t

val create :
  ?jobs:int -> ?cache:bool -> ?queue_capacity:int ->
  ?abort_after:int -> max_active:int -> unit -> t
(** A scheduler whose tenants' batches run on [jobs] workers each
    (default 1: everything on the calling domain).  At most [max_active] jobs run
    concurrently; further submissions queue up to [queue_capacity]
    (default 16) and are admitted as active jobs finish.  [abort_after]
    is the simulated-crash hook: {!drive} raises
    {!Checkpoint.Injected_abort} right after the [n]-th live batch
    {e across all jobs} — immediately after that batch's checkpoint
    write, exactly where a process kill would land. *)

type admission = [ `Admitted | `Queued of int | `Rejected ]

val submit : t -> request -> admission
(** Admit the request now if a slot is free (capture + search start run
    here), queue it ([`Queued pos], 1-based) if the queue has room, or
    reject it outright — the backpressure signal. *)

val drive : t -> unit
(** Run rounds until every admitted and queued job has finished or
    failed.  Each round gives every active job one turn: replayed
    (checkpointed) batches are drained for free, then exactly one live
    batch is evaluated on the process pool.  A job whose search raises
    is marked failed; the scheduler keeps going.
    {!Checkpoint.Injected_abort} propagates (the simulated kill). *)

val shutdown : t -> unit
(** A no-op: the scheduler owns no domains.  Kept because the benchmark
    harness still calls it. *)

(** Final state of one job, in submission order. *)
type report = {
  rp_app : string;
  rp_checkpoint : string option;
  rp_outcome : [ `Finished | `Failed of string | `Unstarted ];
    (** [`Unstarted]: still queued when {!drive} aborted *)
  rp_digest : string option;       (** {!Pipeline.search_digest} *)
  rp_best_ms : float option;       (** best replay fitness *)
  rp_evaluations : int;
  rp_live_batches : int;           (** evaluated in this process *)
  rp_replayed_batches : int;       (** served from its checkpoint *)
  rp_turns : int;                  (** rounds in which it got a step *)
  rp_quarantined : int;            (** entries in its private log *)
  rp_warnings : string list;       (** checkpoint damage/mismatch *)
}

val reports : t -> report list

val quarantine_of : t -> string -> Pipeline.quarantine_entry list
(** The private quarantine entries of every job for an app name
    (submission order) — isolated per tenant, never mixed with the
    process-wide log. *)

(** Scheduler-level counters. *)
type stats = {
  st_rounds : int;
  st_concurrent_rounds : int;  (** rounds in which >= 2 jobs stepped *)
  st_peak_active : int;
  st_live_batches : int;       (** across all jobs *)
  st_fairness_spread : float;
    (** max - min over jobs of (turns taken / rounds present): 0 means
        every tenant stepped in every round it was active *)
  st_rejected : int;
}

val stats : t -> stats
