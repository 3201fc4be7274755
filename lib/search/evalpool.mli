(** A parallel, memoizing evaluation engine for GA generations.

    The paper's offline search is embarrassingly parallel: every genome
    evaluation is an isolated compile + verified replay of a snapshot
    (paper §3.6, Figure 6).  [Evalpool] evaluates a whole generation
    concurrently on OCaml 5 domains and memoizes the deterministic part of
    each evaluation so duplicate genomes — and distinct genomes that
    compile to the same binary — are paid for once.

    The engine is built around a two-stage evaluator supplied by the
    caller:

    - [compile]: genome -> binary (or an immediate failure result).
      Expensive, deterministic, thread-safe.
    - [verify]: binary -> core result (verified replay measurement).
      Expensive, deterministic, thread-safe.

    A batch returns one core result per task.  Anything stochastic (the
    replay noise model) is the caller's to apply afterwards, seeded from
    the evaluation index so results are independent of worker count,
    scheduling and cache state.

    Parallel stages run on one process-wide {!Domainpool}, created by the
    first stage that needs a second worker and replaced by a wider one
    when a later stage asks for more.  No caller owns it and it is never
    shut down: its workers idle between batches and keep their
    domain-local state from one batch to the next.
    Batches must therefore be driven from one domain at a time — the
    search session and the serve scheduler both step their batches on
    the calling domain.

    Determinism contract: for a fixed batch of [(ev_index, genome)] tasks,
    [evaluate_batch] returns the same results for any [jobs] value,
    whether or not the cache is enabled, and for any memo budget.  Two
    caches are maintained when enabled: a genome-level memo (canonicalized
    genome -> core result) and a binary-level memo ([key_of] the compiled
    binary -> core result, which also feeds the GA's identical-binaries
    halting rule upstream).  Both are entry-budgeted {!Repro_util.Lru}
    tables — a long-lived serving process evaluates millions of genomes,
    so unbounded memos would be a slow leak; eviction merely forces a
    deterministic recomputation and can never change an outcome. *)

type worker = {
  w_id : int;
  w_tasks : int;          (** stage executions run by this worker *)
  w_busy_s : float;       (** monotonic seconds spent inside stages *)
}

type stats = {
  batches : int;
  tasks : int;            (** evaluations requested *)
  genome_hits : int;      (** served from the genome memo *)
  genome_misses : int;    (** required at least a compile *)
  key_hits : int;         (** verified replay skipped: binary already seen *)
  compiles : int;
  verifies : int;
  evictions : int;        (** memo entries dropped by the LRU budget *)
  workers : worker list;  (** sorted by id; busy time is cumulative *)
}

type ('bin, 'core) t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?memo_budget:int ->
  canon:(Genome.t -> string) ->
  compile:(Genome.t -> ('bin, 'core) result) ->
  key_of:('bin -> string) ->
  verify:('bin -> 'core) ->
  unit -> ('bin, 'core) t
(** [jobs] (default 1) is the number of worker domains this pool's
    stages use, counting the calling domain; [jobs = 1] runs everything
    on the calling domain.  [cache] (default true) enables the
    genome and binary memos; when disabled every task is evaluated
    honestly, which is what the differential tests rely on.
    [memo_budget] caps each memo table's entry count (65536
    by default; smaller budgets are a test seam for eviction); the
    least-recently-used entry is evicted when full. *)

val evaluate_batch : ('bin, 'core) t -> (int * Genome.t) array -> 'core array
(** Evaluate one generation.  Tasks are [(ev_index, genome)] pairs; the
    result array holds each task's core result, index-aligned with the
    input; a result depends only on the genome, and [ev_index] is there
    for the caller's noise model.  Only the calling domain touches the
    caches; workers run pure [compile]/[verify] stages. *)

val seed_caches :
  ('bin, 'core) t ->
  genomes:(string * 'core) list ->
  keys:(string * 'core) list ->
  unit
(** Warm-start the memos from previously persisted results: [genomes] maps
    canonical genome strings and [keys] binary keys to core results (both
    as produced by this pool's own [compile]/[verify] stages in an earlier
    process — checkpoint resume feeds its journal through this).  No-op
    when the cache is disabled; entries respect the LRU budget. *)

val stats : _ t -> stats
(** Snapshot of this pool's counters. *)

val cumulative_stats : unit -> stats
(** Process-wide totals across every pool created so far (for end-of-run
    reports in the CLI and benchmark harness). *)

val print_stats : stats -> unit
(** Human-readable cache and per-worker timing report on stdout. *)
