(** End-to-end compilation driver: bytecode -> HGraph -> translate ->
    (pass sequence) -> binary.

    Mirrors the paper's `opt`/`llc` invocation: a sequence of named passes
    with integer parameters is applied to every compilable method of the
    region.  Compile failures are first-class outcomes, matching Figure 1's
    taxonomy: invalid parameters raise {!Compile_error}; code-size or
    pass-work explosion raises {!Compile_timeout}.

    The driver is {e staged}: the genome-independent front-end
    (bytecode→HGraph→translate, including the profile-specialized
    variant) is hoisted into a shared {!frontend} built once per
    (dexfile, profile), and per-pass-prefix IR states are memoized in
    {!Stagecache} so compiling a genome resumes at its first gene that
    diverges from any previously compiled genome.  Both accelerators are
    result-transparent: outcomes, binaries and timeout classification are
    byte-identical with them on or off (cached prefixes replay their
    recorded work charges through the live counter). *)

exception Compile_error of string
exception Compile_timeout

type spec = (string * int array) list
(** Pass sequence: (catalog name, parameter values). *)

val with_work_limit : int -> (unit -> 'a) -> 'a
(** Run [f] under a temporary work-limit ceiling (restored on exit, also
    on raise).  A test hook for pinning compiles exactly at the timeout
    boundary; call sequentially, with no compiles running on other
    domains. *)

val android_binary : Repro_dex.Bytecode.dexfile -> int list -> Binary.t
(** Baseline: the Android pipeline per method, then translation.  Methods
    that are uncompilable are silently skipped (they stay interpreted). *)

type frontend
(** A hoisted front-end: dexfile + dispatch profile + lazily memoized
    translated unoptimized bodies (shared with the inliner), plus the
    content digest that namespaces this front-end's entries in the stage
    cache.  Immutable once built except for the mutex-protected memo
    table; safe to share across Evalpool worker domains. *)

val frontend :
  ?profile:string * (Repro_hgraph.Hir.site -> (int * int) list) ->
  ?prewarm:int list ->
  Repro_dex.Bytecode.dexfile -> frontend
(** Build a front-end for a dexfile and an optional dispatch profile,
    given as [(key, lookup)] where [key] content-addresses the profile
    (e.g. [Typeprof.digest]).  The stage-cache namespace is a digest of
    the dexfile's whole content and that key, so equal namespaces mean
    equal inputs.  [prewarm] eagerly translates the given methods
    (typically the region) so search-time lookups are read-mostly. *)

val frontend_digest : frontend -> string
(** The digest namespacing this front-end's stage-cache entries. *)

val llvm_binary : frontend -> spec -> int list -> Binary.t
(** The LLVM-backend path: apply the pass sequence to every compilable
    method of the region, resuming each method from the longest
    stage-cached pass prefix (and publishing every newly reached prefix).
    Results are byte-identical with or without the stage cache, at any
    worker count, and for a fresh or a reused front end.
    @raise Compile_error on unknown passes or invalid parameters.
    @raise Compile_timeout when budgets are exceeded. *)

val pass_env :
  ?profile:(Repro_hgraph.Hir.site -> (int * int) list) ->
  Repro_dex.Bytecode.dexfile -> Passes.env
