(** The replay-based iterative compilation pipeline (paper Figure 6),
    assembled from the substrate libraries:

    online run (Android code) -> profile -> hot region -> capture ->
    interpreted replay (verification map + dispatch profile) -> GA over
    compile+verified-replay evaluations -> best binary installed. *)

module App = Repro_apps.Registry

type online = {
  ctx : Repro_vm.Exec_ctx.t;      (** finished online run *)
  profile : Repro_profiler.Profile.t;
  cycles : int;
  ret : Repro_vm.Value.t option;
}

val android_binary_for : App.t -> Repro_lir.Binary.t
(** The device's default code: every compilable method, Android pipeline.
    Memoized on the app's source text, like {!App.dexfile}. *)

val online_run :
  ?seed:int -> ?binary:Repro_lir.Binary.t -> ?sample_period:int -> App.t ->
  online
(** One full online execution (out of the box: the Android binary). *)

val hot_region_of : App.t -> online -> int option
val region_methods : App.t -> int -> int list

type captured = {
  snapshot : Repro_capture.Snapshot.t;
  overhead : Repro_capture.Capture.overhead;
  hot_mid : int;
  capture_cycles : int;
      (** simulated cycles of the whole online run that took the capture,
          its overhead included; the run itself is not kept *)
}

val capture_once : ?seed:int -> ?eager:bool -> App.t -> captured option
(** Run online under the Android binary with a capture scheduled for the
    second entry into the hot region (warm state, after first-call
    initialization); [None] when no replayable hot region exists.  When a
    device store is attached ({!Repro_capture.Snapshot.set_store}), the
    capture enqueues its pages to it — content hashing and dedup happen
    later, at the idle-priority drains between GA evaluation batches.
    [eager] is {!Repro_capture.Capture.capture_region}'s Figure 10
    ablation (default false). *)

(** One secondary corpus capture: a distinct input's snapshot, its
    cross-input verification reference (a map, or the reference's own
    trap), and what the capture cost online. *)
type corpus_entry = {
  ce_input : App.input;
  ce_snapshot : Repro_capture.Snapshot.t;
  ce_reference : Repro_capture.Verify.reference;
  ce_overhead : Repro_capture.Capture.overhead;
}

(** A multi-input capture corpus: the primary capture (fitness is always
    measured on it, so single-input figures are unchanged) plus secondary
    entries for the app's other inputs. *)
type corpus = {
  co_app : App.t;
  co_primary : captured;
  co_entries : corpus_entry list;   (** in corpus (verification) order *)
}

val capture_corpus : ?seed:int -> k:int -> App.t -> corpus option
(** Capture {!App.input_variants}[ ~seed ~k]: the primary capture exactly
    as {!capture_once}, then one capture per variant input — first entry
    into the same hot region, harvested even when the region traps (the
    adversarial inputs are chosen to do exactly that), online run aborted
    right after the capture.  Variants whose run never reaches the region
    or whose reference replay hangs are dropped, so the corpus may hold
    fewer than [k] entries.  Snapshots are spooled to the attached device
    store like the primary's, each under its own program blob
    ({!Repro_capture.Snapshot.program_label}) next to the app's one
    boot-common blob (identical pages dedup to shared frames, which is
    what makes corpus storage cost sublinear in K).  Each capture bumps
    the [corpus.captures] counter.
    Pure in [(app, seed, k)].  [None] when no replayable hot region
    exists. *)

(** {1 Quarantine accounting}

    Binaries (and persisted artifacts) discarded as untrustworthy are
    recorded in a {!quarantine_log}.  Logs are per-run values: the serve
    scheduler gives every tenant its own, so concurrent searches can
    never see — or reset — each other's entries.  Call sites that don't
    pass [?log] use the process-wide default, which keeps the one-shot
    CLI behaviour. *)

(** One row of the quarantine report: a binary discarded as a
    deterministic miscompile under fault injection, or a persisted
    artifact (genome bank, checkpoint) that failed its integrity
    checks. *)
type quarantine_entry = {
  q_binary : string;    (** {!binary_key} of the discarded binary, or an
                            artifact key like ["bank:FILE"] /
                            ["checkpoint:FILE"] *)
  q_reason : string;    (** first verdict and retry verdict *)
  q_count : int;        (** times it was (re-)verified into quarantine *)
}

(** A mutex-protected quarantine log (the verify stage runs on worker
    domains). *)
type quarantine_log

val create_quarantine_log : unit -> quarantine_log

val quarantine_summary : ?log:quarantine_log -> unit -> quarantine_entry list
(** The log's entries since its last {!reset_quarantine}, sorted by key
    (deterministic across worker counts). *)

val reset_quarantine : ?log:quarantine_log -> unit -> unit
(** Clear one log (call between independent runs/tests).  Only touches
    [log] (default: the global one) — a tenant reset can no longer clobber
    other tenants' reports. *)

val record_quarantine :
  ?log:quarantine_log -> key:string -> reason:string -> unit -> unit
(** Add an entry directly.  Used by subsystems that detect persistent
    corruption outside [verify_core] — e.g. the fleet genome bank or the
    checkpoint loader routing a corrupted-file load into the same
    quarantine policy — so every "discarded as untrustworthy" event shows
    up in one report.  Bumps the [verify.quarantined] counter. *)

val quarantine_entries : quarantine_log -> (string * string * int) list
(** Raw [(key, reason, count)] rows in key order — the representation
    checkpoints persist. *)

val restore_quarantine : quarantine_log -> (string * string * int) list -> unit
(** Replace/insert rows from a checkpoint into the log (resume path). *)

type evaluation_env = {
  dx : Repro_dex.Bytecode.dexfile;
  app : App.t;
  capture : captured;
  vmap : Repro_capture.Verify.reference;
  (** the primary capture's verification reference, collected once; always
      a map ({!make_eval_env} fails when the interpreted replay traps) *)
  typeprof : Repro_capture.Typeprof.t;
  region : int list;
  frontend : Repro_lir.Compile.frontend;
  (** hoisted genome-independent front-end (translated templates +
      profile), shared by every genome and worker domain; its content
      digest namespaces this environment's {!Repro_lir.Stagecache}
      entries *)
  corpus : corpus_entry list;
  (** secondary verification inputs; [[]] gives exactly the historical
      single-input behaviour *)
  android_region_ms : float;     (** replay fitness of the Android code *)
  o3_region_ms : float;
  measure_seed : int;
  (** noise streams are [Rng.of_pair measure_seed ev_index]: measured
      times depend only on the evaluation's identity, never on worker
      count, batching, or cache state *)
  quarantine : quarantine_log;
  (** where this run's verify/artifact quarantines are recorded *)
}

val replays_per_eval : int
(** Measured replays per evaluation: 10. *)

val noise_sigma : float
(** Log-normal sigma of the offline replay noise model (an idle,
    frequency-pinned device: §4). *)

val make_eval_env :
  ?seed:int -> ?corpus:corpus_entry list -> ?quarantine:quarantine_log ->
  App.t -> captured -> evaluation_env
(** Interpreted replay for the verification map and type profile, plus
    baseline replay measurements.  [corpus] (default none) adds secondary
    verification inputs; fitness and baselines stay on the primary
    capture.  [quarantine] (default: the process-wide log) scopes the
    run's quarantine entries. *)

(** The deterministic part of one evaluation (everything but measurement
    noise): what {!make_core_pool} memoizes and a checkpoint journals.
    One type, defined in {!Checkpoint}. *)
type eval_core = Checkpoint.core =
  | Core_measured of { cycles : int; size : int; key : string }
  | Core_compile_failed of string
  | Core_compile_timeout
  | Core_crashed of string
  | Core_hung
  | Core_wrong_output
  | Core_quarantined of string

val compile_core :
  evaluation_env -> Repro_search.Genome.t ->
  (Repro_lir.Binary.t, eval_core) result
(** Compile the genome for the region; [Error] is an immediate failure
    core.  Pure per-call: safe to run on worker domains. *)

val check_corpus :
  ?site:int -> evaluation_env -> Repro_lir.Blockexec.loaded ->
  Repro_capture.Verify.check_result * int
(** {!Repro_capture.Verify.check_corpus} over the environment's primary
    capture and corpus: the verdict and how many corpus entries ran. *)

val verify_core : evaluation_env -> Repro_lir.Binary.t -> eval_core
(** Verified replay of a compiled binary against the capture — and, when
    the environment carries a corpus, against {e every} corpus entry in
    corpus order with a first-failure short-circuit
    ([verify.corpus_checks] / [verify.corpus_kills] counters).  Fitness
    cycles always come from the primary capture.  The binary is loaded
    once, so all of the call's replays, fault retry included, share one
    block plan.  Pure per-call: safe to run on worker domains.

    While [Repro_util.Faults] is armed, the candidate replay runs inside a
    fault scope keyed by [(binary, attempt)] and a failed verification is
    retried once under a different scope key: a transient injected
    replay/executor fault does not re-fire on the retry (the binary is
    measured normally, counted by the [verify.retried] trace counter),
    while a deterministic miscompile fails again and the binary is
    {e quarantined} ({!Core_quarantined}, the [verify.quarantined] counter,
    and the environment's {!quarantine_log}).  Every decision is a pure
    function of the fault seed and the binary, preserving the
    [-j N]/[--no-cache] determinism contract. *)

val outcome_of_core :
  evaluation_env -> ev_index:int -> eval_core -> Repro_search.Ga.outcome
(** Expand the deterministic replay cycle count into {!replays_per_eval}
    measurements through the offline noise model (replays run on an idle,
    frequency-pinned device: §4), seeded from [(measure_seed, ev_index)]. *)

type finish =
  evaluation_env -> batch:int -> (int * eval_core) array ->
  Repro_search.Ga.outcome array
(** How a search turns one batch's deterministic [(ev_index, core)] pairs
    into measured outcomes (same order).  [batch] is the 0-based index of
    the batch within the search.  A policy pure in [(batch, ev_index,
    core)] keeps the determinism and kill/resume contracts: the session
    applies it to live and journal-replayed batches alike. *)

val make_core_pool :
  ?jobs:int -> ?cache:bool -> evaluation_env ->
  (Repro_lir.Binary.t, eval_core) Repro_search.Evalpool.t
(** A parallel memoizing evaluator over [compile_core]/[verify_core] for
    this environment, yielding the raw {!eval_core} (no noise applied):
    the search session turns cores into outcomes with its {!finish}
    policy, and the figures classify them.  The genome memo keys on
    {!Repro_search.Genome.canon}; both memos are LRU tables at the
    Evalpool default budget.  [jobs] workers per stage run on the
    process-wide domain pool. *)

val replay_ms : evaluation_env -> Repro_lir.Binary.t -> float option
(** Mean verified replay time of an arbitrary binary, [None] on failure. *)

val binary_key : Repro_lir.Binary.t -> string
(** Digest of the binary's code: identical keys mean identical binaries
    (the identical-binaries halting rule and the pool's binary memo). *)

type optimized = {
  env : evaluation_env;
  ga : Repro_search.Ga.result;
  best_genome : Repro_search.Genome.t option;
  best_fitness : float option;              (** after the hill climb *)
  best_binary : Repro_lir.Binary.t option;  (** verified best, if any *)
  pool_stats : Repro_search.Evalpool.stats; (** cache/worker counters *)
}

val search_digest : optimized -> string
(** Hex digest over the whole search outcome: the GA history digest plus
    the hill climb's final genome and fitness bits.  This is the value
    the determinism contract asserts byte-identical across [-j N],
    [--no-cache], scheduler interleavings and — via checkpoints —
    process restarts. *)

(** {1 Searches}

    A search is a suspended session: {!start_search} (or {!start}, for a
    {!request}) builds it, {!search_step} advances it by exactly one
    evaluation batch, and {!run_session} steps it to the end.  The serve
    scheduler round-robins [search_step] across tenants; the checkpoint
    machinery journals each live batch. *)

type search_session

type step_outcome = [ `Live | `Replayed | `Finished of optimized ]

val start_search :
  ?seed:int -> ?cfg:Repro_search.Ga.config -> ?jobs:int -> ?cache:bool ->
  ?corpus:corpus_entry list -> ?seed_genomes:Repro_search.Genome.t list ->
  ?quarantine:quarantine_log -> ?checkpoint:string -> ?abort_after:int ->
  ?finish:finish -> App.t -> captured -> search_session
(** Build the environment and a suspended search: the GA, then the final
    hill-climbing step around its winner.  [jobs] (default 1) evaluates
    each batch on that many domains; [cache] (default true) memoizes
    repeated genomes and binaries in bounded LRU memos.  Results are
    identical for every [jobs]/[cache] combination.  [corpus] makes every
    candidate verify against the secondary inputs too (the corpus verdict
    folds into the same retry/quarantine policy under fault injection);
    results are independent of corpus evaluation order.  [finish]
    (default: {!outcome_of_core} per task, the single-device noise model)
    turns each batch's cores into outcomes — the fleet passes its
    per-device sampling here; it is not fingerprinted, so a resumed run
    must pass the same policy.

    [checkpoint] arms crash-safe resume: after every live evaluation
    batch the search journal is atomically rewritten to that file, and a
    restarted run with the same configuration replays the journal before
    going live — the final {!search_digest} is byte-identical to an
    uninterrupted run's.  An existing journal is loaded and validated
    here: a missing file starts cold silently; a damaged file or one
    whose fingerprint doesn't match this configuration is quarantined
    (key ["checkpoint:FILE"]), warned about ({!session_warnings}) and
    ignored; a valid journal seeds the eval pool's memos and will be
    replayed batch-for-batch.  The fingerprint covers the app's name and
    content (its front end's digest: dexfile and dispatch profile), seed,
    replays per evaluation, GA config, corpus, warm-start seeds and the
    armed [--faults] spec (which decides what gets quarantined) — but
    deliberately {e not} [jobs]/[cache], which are result-invariant: a
    checkpoint taken at [-j4] resumes at [-j1 --no-cache] and vice versa.
    [abort_after] is the simulated-kill hook: {!search_step} raises
    {!Checkpoint.Injected_abort} immediately after the [n]-th live
    batch's checkpoint write. *)

val search_step : search_session -> step_outcome
(** Advance by one batch.  [`Replayed]: the journal's next batch matched
    the search's request (RNG cursor, evaluation indices, canonical
    genomes) and was served without evaluating anything.  [`Live]: the
    batch was evaluated on the pool and the checkpoint file (if any)
    atomically rewritten; raises {!Checkpoint.Injected_abort} right after
    the write once [abort_after] live batches have run.  After each live
    batch, when a device store is attached, a bounded chunk of its spool
    queue is drained — the paper's idle-priority flash writer.  Stored
    contents are a pure function of what was captured, so spool timing
    cannot affect search results.  A journal batch
    that {e doesn't} match falls back to a full cold restart (fresh pool,
    fresh RNG, empty journal) with a warning and a quarantine entry —
    recorded state that diverges from the configured search cannot be
    trusted at all.  [`Finished] yields the result (also via
    {!session_result}). *)

val run_session : search_session -> optimized
(** Step the session to the end and return its result: the one
    drive-to-completion loop behind [repro optimize], the studies, the
    fleet and the examples. *)

val session_result : search_session -> optimized option

val session_warnings : search_session -> string list
(** Checkpoint damage/mismatch warnings, oldest first. *)

val session_live_batches : search_session -> int
(** Batches evaluated live this process (the resume-overhead metric). *)

val session_replayed_batches : search_session -> int
(** Batches served from the journal this process. *)

(** {1 Requests}

    The capture→search seed rule, in one place: a request captures its
    corpus at [seed] and searches at [seed + 13]. *)

type request = {
  r_app : App.t;
  r_seed : int;              (** capture seed; the search derives its own *)
  r_cfg : Repro_search.Ga.config;
  r_corpus_k : int;          (** 1 = single capture, >1 adds corpus inputs *)
  r_checkpoint : string option;  (** journal file for crash-safe resume *)
}

val request :
  ?seed:int -> ?cfg:Repro_search.Ga.config -> ?corpus_k:int ->
  ?checkpoint:string -> App.t -> request
(** Defaults: seed 7, {!Repro_search.Ga.quick_config}, corpus 1, no
    checkpoint — matching the [repro optimize] CLI. *)

val start :
  ?jobs:int -> ?cache:bool ->
  ?quarantine:quarantine_log -> ?abort_after:int -> request ->
  (corpus * search_session) option
(** Capture the request's corpus ({!capture_corpus} at [r_seed]) and
    {!start_search} on it at [r_seed + 13] with the request's config and
    checkpoint.  [None] when the app has no replayable hot region. *)

val final_binary : optimized -> Repro_lir.Binary.t
(** Android code with the GA-optimized region installed on top. *)

type speedups = {
  android_cycles : float;
  o3_cycles : float;
  ga_cycles : float;
  o3_speedup : float;
  ga_speedup : float;
}

val measure_speedups :
  ?runs:int -> App.t -> optimized -> speedups
(** Whole-program execution outside the replay environment (paper §4): the
    same online runs under the three binaries, averaged over several
    fixed-seed executions. *)
