(** The genetic search over the compiler optimization space (paper §3.6,
    parameters from §4).

    The GA is decoupled from replay: callers supply a batch evaluator
    mapping indexed genomes to measured replay times (or failure
    outcomes).  Fitness is the
    mean replay time after MAD outlier removal; when two genomes are not
    significantly different under a two-sided t-test, the smaller binary
    wins.  Evaluation history is recorded for the Figure 9 evolution
    plots. *)

type outcome =
  | Measured of { times : float array; size : int; key : string }
  (** replay times in ms; [key] identifies the produced binary so the
      identical-binaries halting rule can fire *)
  | Compile_failed of string    (** the compiler rejected the sequence *)
  | Runtime_crashed of string   (** the verified replay crashed *)
  | Runtime_hung                (** the verified replay exceeded its fuel *)
  | Wrong_output                (** the verification map rejected the binary *)
  | Quarantined of string
  (** the binary persistently failed verification under fault injection
      (failed once and again on the retry): a deterministic miscompile,
      discarded with worst fitness like every other failure — the paper's
      §3.4 "discard miscompiled binaries" mechanism made observable.
      Produced only while [Repro_util.Faults] is armed. *)

type config = {
  population : int;          (** 50 *)
  generations : int;         (** 11: 1 random + 10 evolved *)
  seed_retries : int;        (** up to 3 redraws of unprofitable seeds *)
  genome_mutation_prob : float;   (** 0.05 *)
  gene_mutation_prob : float;     (** 0.05 *)
  tournament_size : int;     (** 7 *)
  tournament_p : float;      (** 0.9 *)
  max_identical : int;       (** halt after 100 identical binaries *)
  no_improve_generations : int;   (** halt when stuck *)
  elites : int;
  size_tiebreak_alpha : float;    (** t-test level for "sufficiently close" *)
}

val default_config : config
(** The paper's §4 search parameters. *)

val quick_config : config
(** Reduced search (fewer genomes/generations) for fast harness runs. *)

val config_fingerprint : config -> string
(** An exact rendering of every field (floats in hex), so equal strings
    mean equal configs: the config part of checkpoint fingerprints. *)

(** One line of the evaluation history (the Figure 9 evolution data). *)
type eval_record = {
  ev_index : int;              (** dense, increasing evaluation id *)
  ev_generation : int;         (** generation the genome belonged to *)
  ev_genome : Genome.t;
  ev_outcome : outcome;
  ev_fitness : float option;   (** mean filtered replay ms, when measured *)
}

type result = {
  best : (Genome.t * float) option;    (** best genome and its fitness *)
  history : eval_record list;          (** in evaluation order *)
  evaluations : int;                   (** total evaluations performed *)
  halted_early : string option;        (** halting rule that fired, if any *)
}

val run :
  ?seed_genomes:Genome.t list ->
  Repro_util.Rng.t -> config ->
  evaluate_batch:((int * Genome.t) array -> outcome array) ->
  ?baseline_ms:float ->
  ?o3_ms:float ->
  unit -> result
(** Generation-batched search.  [evaluate_batch] receives one whole
    generation (or seeding round) as [(ev_index, genome)] pairs and must
    return an index-aligned outcome array; {!Evalpool.evaluate_batch} is
    the intended implementation.  Evaluation indices are dense and
    increasing, genomes for a batch are drawn from [rng] before any of
    them are evaluated, and the outcomes are folded back in index order,
    so history, fitness, and the identical-binaries halting rule are
    independent of how the batch is scheduled.

    [seed_genomes] warm-starts the search: the first
    [min (length seed_genomes) population] slots of the first seeding
    round evaluate the given genomes instead of random draws (the fleet
    coordinator feeds genome-bank winners through this).  Seeded slots
    are subject to the same profitability redraws as random seeds, and
    they consume no RNG draws, so results stay a pure function of
    [(rng, cfg, seed_genomes)].

    [baseline_ms]/[o3_ms] enable the first-generation seeding rule: seeds
    slower than both baselines are redrawn (as whole-population rounds) up
    to [seed_retries] times. *)

val hill_climb :
  ?ev_base:int ->
  Repro_util.Rng.t ->
  evaluate_batch:((int * Genome.t) array -> outcome array) ->
  Genome.t * float -> rounds:int -> Genome.t * float
(** Final local search: single-gene deletions and parameter tweaks,
    accepting improvements.  Each round's neighbourhood is evaluated as
    one batch; evaluation indices start above [ev_base] (pass the GA's
    [evaluations] count so noise streams stay distinct). *)

val history_digest : result -> string
(** Hex digest of the canonically rendered history.  Two searches with
    equal digests performed byte-identical evaluation sequences — the
    contract checked across worker counts, cache settings, fleet
    scheduling orders and (via checkpoints) process restarts. *)

(** {2 Cooperative stepping}

    A suspended search: either finished with a result, or waiting on one
    evaluation batch.  Resuming a [Step_eval] consumes its one-shot
    continuation — apply it at most once. *)
type 'r step =
  | Step_done of 'r
  | Step_eval of (int * Genome.t) array * (outcome array -> 'r step)

val coop :
  (evaluate_batch:((int * Genome.t) array -> outcome array) -> 'r) ->
  'r step
(** [coop body] runs [body] (typically {!run} followed by
    {!hill_climb}) under an effect handler in which
    [evaluate_batch] suspends the search instead of evaluating.  The
    search logic is unchanged — same draws, same indices, same halting
    rules — but the caller now controls how each batch is satisfied:
    evaluate it live, serve it from a checkpoint journal, or interleave
    it with other searches (the serve scheduler's round-robin).  The body
    runs on the calling domain; steps must be resumed from the same
    domain. *)
