(** Genomes encoding compiler optimization decisions (paper §3.6): a
    variable-length sequence of passes with their parameters and flags. *)

type gene = { g_pass : string; g_params : int array }
(** One optimization decision: a pass-catalog name and its parameters. *)

type t = gene list
(** A genome is the ordered pass sequence handed to the compiler. *)

val min_length : int
(** Shortest genome the genetic operators will produce. *)

val max_length : int
(** Longest genome {!random} will draw. *)

val random : Repro_util.Rng.t -> t
(** Random genome with uniformly drawn length and parameters.  With a small
    probability a parameter lands outside its valid range, mirroring the
    invalid flag combinations a random `opt` command line can contain (the
    compiler rejects them: a compile-error outcome in Figure 1). *)

val random_gene : Repro_util.Rng.t -> gene
(** Always-valid single gene. *)

val to_spec : t -> Repro_lir.Compile.spec
(** The compiler-facing pass sequence (the genome's phenotype input). *)

val mutate : Repro_util.Rng.t -> gene_prob:float -> t -> t
(** Per-gene mutation: tweak a parameter, replace a pass, delete, or insert
    a fresh gene (each gene mutates with probability [gene_prob]).
    Mutated parameters stay in range. *)

val crossover : Repro_util.Rng.t -> t -> t -> t
(** Single-point crossover; the result is padded with fresh random genes if
    it would fall below [min_length]. *)

val dedup_adjacent : t -> t
(** Remove immediately repeated identical genes (the "remove redundant
    passes" step applied to the first generation). *)

val to_string : t -> string
(** Compact human-readable rendering, e.g. for logs and reports. *)

val to_text : t -> string
(** Machine round-trip rendering (space-separated [pass:p1,p2] genes) used
    by the genome bank and the search checkpoints.  [of_text (to_text g)]
    reproduces [g] exactly. *)

val of_text : string -> t
(** Parse the {!to_text} format.  Raises [Failure] on malformed parameter
    lists (callers treat that as a corrupt persisted image). *)

val canon : t -> string
(** Canonical identity of the genome: the string the Evalpool genome memo
    keys on, built from the same per-gene tokens the stage-cache prefix
    fingerprints hash — so the two caches can never disagree on genome
    identity.  Differs from {!to_string} only for genes whose parameter
    count mismatches the catalog: their (unobservable) parameter values
    are folded away. *)
