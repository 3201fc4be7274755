(** A parallel, memoizing evaluation engine for GA generations.

    The paper's offline search is embarrassingly parallel: every genome
    evaluation is an isolated compile + verified replay of a snapshot
    (paper §3.6, Figure 6).  [Evalpool] evaluates a whole generation
    concurrently on OCaml 5 domains and memoizes the deterministic part of
    each evaluation so duplicate genomes — and distinct genomes that
    compile to the same binary — are paid for once.

    The engine is built around a three-stage evaluator supplied by the
    caller:

    - [compile]: genome -> binary (or an immediate failure result).
      Expensive, deterministic, thread-safe.
    - [verify]: binary -> core result (verified replay measurement).
      Expensive, deterministic, thread-safe.
    - [finish]: core result + evaluation index -> final outcome.  Cheap;
      runs on the calling domain.  Anything stochastic (the replay noise
      model) belongs here, seeded from the evaluation index so results are
      independent of worker count, scheduling and cache state.

    Determinism contract: for a fixed batch of [(ev_index, genome)] tasks,
    [evaluate_batch] returns the same outcomes for any [jobs] value,
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

type ('bin, 'core, 'out) t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?memo_budget:int ->
  ?pool:Domainpool.t ->
  canon:(Genome.t -> string) ->
  compile:(Genome.t -> ('bin, 'core) result) ->
  key_of:('bin -> string) ->
  verify:('bin -> 'core) ->
  finish:(ev_index:int -> 'core -> 'out) ->
  unit -> ('bin, 'core, 'out) t
(** [jobs] (default 1) is the number of worker domains; [jobs = 1] runs
    everything on the calling domain.  [cache] (default true) enables the
    genome and binary memos; when disabled every task is evaluated
    honestly, which is what the differential tests rely on.
    [memo_budget] caps each memo table's entry count (65536
    by default; smaller budgets are a test seam for eviction); the
    least-recently-used entry is evicted when full.
    [pool], when given, makes parallel stages run on the supplied
    persistent {!Domainpool} instead of spawning fresh domains per batch
    (and overrides [jobs] with the pool's size) — this is how the serve
    scheduler shares one domain pool across concurrent searches. *)

val evaluate_batch : ('bin, 'core, 'out) t -> (int * Genome.t) array -> 'out array
(** Evaluate one generation.  Tasks are [(ev_index, genome)] pairs; the
    result array is index-aligned with the input.  Only the calling domain
    touches the caches; workers run pure [compile]/[verify] stages. *)

val seed_caches :
  ('bin, 'core, 'out) t ->
  genomes:(string * 'core) list ->
  keys:(string * 'core) list ->
  unit
(** Warm-start the memos from previously persisted results: [genomes] maps
    canonical genome strings and [keys] binary keys to core results (both
    as produced by this pool's own [compile]/[verify] stages in an earlier
    process — checkpoint resume feeds its journal through this).  No-op
    when the cache is disabled; entries respect the LRU budget. *)

val jobs : _ t -> int
(** The pool's worker-domain count, as resolved at {!create} time. *)

val stats : _ t -> stats
(** Snapshot of this pool's counters. *)

val cumulative_stats : unit -> stats
(** Process-wide totals across every pool created so far (for end-of-run
    reports in the CLI and benchmark harness). *)

val print_stats : ?label:string -> stats -> unit
(** Human-readable cache and per-worker timing report on stdout. *)
