(** The staged-compilation cache: content-addressed memoization of
    per-pass-prefix IR states for {!Compile.llvm_binary}.

    The GA mutates and recombines pass sequences a few genes at a time, so
    most of a generation's compile work re-runs prefixes that were already
    compiled for a parent genome.  This cache remembers, per (front-end
    digest, method, canonical gene-prefix fingerprint), the IR state after
    that prefix together with the {e recorded work charges} the prefix
    incurred, so a later compile resumes at its first divergent gene and
    pays only for the changed suffix.  An exact recompile resumes from its
    full-length prefix and only re-materializes the binary; whole-genome
    repeats are the Evalpool genome memo's job.

    {b Accounting transparency.}  An entry carries the per-pass
    [Hir.size] charges its prefix accumulated; on a hit the compiler
    replays them through its live work counter with the same
    [work_limit] check a real run performs.  [Compile_timeout]
    classification — and therefore every search history built on it — is
    byte-identical with the cache on or off, at any [-j].

    {b Identity.}  Prefix fingerprints hash {!Passes.canon_token} renderings
    of each gene, chained from the front-end digest — exactly the
    canonicalization the Evalpool genome memo uses ([Genome.canon]), so
    the two caches can never disagree on genome identity.

    {b Domain safety and bounds.}  One process-global {!Repro_util.Lru}
    behind a mutex, shared by all Evalpool worker domains; cached funcs are
    never mutated after insertion (the compiler copies before materializing
    a binary from them).  Residency is bounded by an LRU byte budget with
    eviction counters.  All counters are mirrored as [stagecache.*] trace
    counters when tracing is enabled. *)

type entry = {
  sc_func : Repro_hgraph.Hir.func;
  (** IR state after the prefix; treat as immutable — copy before any
      mutating consumer ([Binary.create], fault mutators). *)
  sc_charges : int array;
  (** per-pass [Hir.size] work charges of genes [1..k], for replay *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Default on.  Disabling never changes results, only compile time
    (the [--no-stage-cache] knob). *)

val capacity_bytes : unit -> int
val set_capacity_bytes : int -> unit
(** LRU byte budget over held IR (default 256 MiB); shrinking evicts
    immediately. *)

val fingerprints : frontend:string -> (string * int array) list -> string array
(** [fingerprints ~frontend spec] chains {!Passes.canon_token} tokens from
    the front-end digest: element [k-1] identifies the [k]-gene canonical
    prefix of [spec] under that front-end. *)

val lookup :
  frontend:string -> mid:int -> fps:string array -> (int * entry) option
(** Longest cached prefix for this (front-end, method): [Some (k, entry)]
    means [entry] is the state after genes [1..k] ([fps.(k-1)]).  Bumps
    hit/miss and reuse counters; [None] when disabled.

    [lookup] and {!insert} take the lock separately, so two workers that
    miss on one prefix both run its passes, and the second insert is
    dropped.  At more than one worker the hit, reuse, insert and
    held-byte counts, and so the end-of-run report, depend on
    scheduling.  No result does: an entry is a pure function of its
    key. *)

val insert : frontend:string -> mid:int -> fp:string -> entry -> unit
(** Publish the state after a freshly-run prefix (first writer wins; the
    value is a pure function of the key, so racing duplicates are
    identical; see {!lookup} for what the race does to the counters).
    May evict least-recently-used entries to stay under the byte budget.
    No-op when disabled. *)

val note_gene_run : unit -> unit
(** One pass actually executed (the denominator of the reuse ratio). *)

val note_frontend_func : unit -> unit
(** One front-end template (bytecode→HGraph→translate of one method)
    actually built. *)

type stats = {
  prefix_hits : int;      (** method-compiles resumed from a cached prefix *)
  prefix_misses : int;    (** method-compiles with no usable prefix *)
  genes_reused : int;     (** passes skipped by prefix reuse *)
  genes_run : int;        (** passes actually executed *)
  longest_prefix : int;   (** longest prefix ever reused, in genes *)
  inserts : int;
  evictions : int;
  entries : int;          (** live entries *)
  bytes_held : int;       (** estimated resident bytes of live entries *)
  frontend_funcs : int;   (** front-end templates built across frontends *)
}

val stats : unit -> stats
val reset : unit -> unit
(** Drop all entries and zero the counters (between independent runs and
    tests). *)

val print_stats : stats -> unit
(** Human-readable end-of-run report, printed alongside the Evalpool cache
    report. *)
