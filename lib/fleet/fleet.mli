(** The fleet coordinator: one app's search sharded across a simulated
    device population (the paper's crowdsourced deployment; ROADMAP
    item 1).

    A fleet search {e is} a {!Repro_core.Pipeline} search session — same
    GA, same final hill climb, same shared eval pool (the server compiles
    and verifies each genome {e once}) — with one difference: its
    per-batch {!Repro_core.Pipeline.finish} policy.  Instead of the
    single-device noise model, each measured genome is assigned to a
    rotation of the devices online that round (round = the session's batch
    index), and every assigned device contributes a small batch of replay
    samples drawn from its own noise model (its DVFS multiplier widens the
    lognormal sigma; its stream is seeded [(device noise seed,
    ev_index)]).  Per-device sample batches are pooled in device-id order
    with {!Repro_util.Stats.pool_samples} and handed to the GA as one
    [Measured] outcome, so ranking reuses the existing MAD-outlier +
    Welch-t-test machinery unchanged.

    {2 Determinism contract}

    The search history is byte-identical (see [history_digest]) across:
    - worker-domain count ([jobs]) and cache state — inherited from the
      session's pool contract;
    - device {e scheduling} order — [sched_seed] shuffles the order in
      which assigned devices are processed, but samples are pure per
      (device, ev_index) and aggregation sorts by device id;
    - availability interleaving — a device's online state at round [t] is
      pure in its profile and [t] ({!Device.available}), and assignment
      depends only on [(ev_index, sorted available set)].

    Trace counters (under [fleet.*]): [devices], [batches], [assignments],
    [samples], [empty_rounds], [bank_seeds], [bank_records],
    [bank_corrupt]. *)

module Pipeline = Repro_core.Pipeline
module Ga = Repro_search.Ga

type config = {
  ga : Ga.config;
  replicas : int;
  (** devices assigned to each genome (capped by availability) *)
  samples_per_device : int;
  (** replay samples each assigned device contributes *)
}

val default_config : config
(** {!Repro_search.Ga.quick_config}, 7 replicas, 3 samples per device:
    a pooled sample set comparable to the single-device pipeline's
    {!Pipeline.replays_per_eval}. *)

(** Rounds, samples and the winner cover the whole session: the GA
    batches and the final hill climb's. *)
type result = {
  opt : Pipeline.optimized;   (** the session's result (GA + hill climb) *)
  devices : int;              (** fleet size as requested *)
  capable : int;              (** devices with the app installed *)
  ticks : int;                (** availability rounds (one per batch) *)
  avail_trace : int list;     (** online capable devices per round *)
  empty_rounds : int;         (** rounds rescued by the whole-fleet fallback *)
  fleet_samples : int;        (** device samples contributed in total *)
  bank_seeds : int;           (** warm-start genomes taken from the bank *)
  winner_ms : float option;   (** replay of [opt.best_binary] on the
                                  reference env *)
  history_digest : string;
  (** {!Repro_search.Ga.history_digest} of [opt.ga]: equal digests mean
      byte-identical GA searches; the CLI smoke and the qcheck
      determinism properties compare these *)
}

val run :
  ?jobs:int -> ?cache:bool -> ?sched_seed:int -> ?bank:Bank.t ->
  ?cfg:config -> seed:int -> devices:int ->
  Pipeline.corpus -> result
(** Run the sharded search on the app's capture [corpus] over a fleet of
    [devices] profiles derived from [seed] ({!Device.fleet}): a
    {!Pipeline.start_search} session at [seed] (environment at
    [seed + 1]) with the fleet's finish policy, driven to the end.
    [bank] (shared, mutated in place) warm-starts the GA from previous
    winners for the app — matching the reference device's bucket first —
    and receives this search's hill-climbed winner under every bucket
    present in the capable fleet.  [sched_seed]
    (default 0) permutes device processing order only; the result is
    independent of it.  If no capable device is online in a round the
    whole capable fleet steps in ([empty_rounds]).  Device 0 guarantees
    the capable set is never empty. *)
