(** The cross-device genome bank: the server-side memory of a crowdsourced
    deployment (precursor paper arXiv 1511.02603, §ROADMAP item 1).

    Search winners are recorded keyed by [(app, device-feature bucket)]
    ({!Device.bucket}); a later search over the same app warm-starts from
    the bank's genomes (the search's warm-start [seed_genomes]), so the
    population as a whole keeps getting faster without any device
    re-paying for discovery.

    Persistence rides the content-addressed page store: the bank
    serializes to a deterministic text image saved through
    {!Repro_os.Storage.save_text} (the codec search checkpoints use), so
    the on-disk artifact is byte-identical for equal contents, every page
    is checksummed and a save is atomic.  A corrupted or unreadable bank
    file degrades gracefully on load — the damage is routed into the
    process-wide quarantine log ({!Repro_core.Pipeline.record_quarantine})
    and the search proceeds cold, exactly like any other untrustworthy
    artifact. *)

(** One recorded winner. *)
type entry = {
  e_app : string;
  e_bucket : string;          (** {!Device.bucket} of the contributors *)
  e_genome : Repro_search.Genome.t;
  e_fitness_ms : float;       (** pooled fleet fitness when recorded *)
  e_wins : int;               (** times a winner landed on this key *)
}

type t

val create : unit -> t

val record :
  t -> app:string -> bucket:string -> Repro_search.Genome.t ->
  fitness_ms:float -> unit
(** Offer a winner for [(app, bucket)].  The key keeps its best genome
    (lowest fitness); the win count increments either way.  Bumps the
    [fleet.bank_records] trace counter. *)

val lookup : t -> app:string -> bucket:string -> Repro_search.Genome.t list
(** Warm-start seeds for a search: the matching bucket's genome first,
    then other buckets of the same app (by bucket name then fitness),
    deduplicated by {!Repro_search.Genome.canon}.  Deterministic order. *)

val entries : t -> entry list
(** All entries, sorted by [(app, bucket)]. *)

val size : t -> int

val save : t -> string -> unit
(** Serialize to [file] via the page store, atomically (temp file +
    rename).  Byte-deterministic: equal bank contents produce identical
    files. *)

val load : string -> t * string list
(** Rebuild a bank from a {!save}d file, returning load warnings.  A
    missing file yields an empty bank; a damaged or unreadable one
    (a directory, failed page checksum, torn payload, unparseable entry)
    yields an empty bank, a
    warning, a [fleet.bank_corrupt] counter bump, and a quarantine-log
    entry keyed ["bank:"^file]. *)
