(** One driver per table/figure of the paper's evaluation (§5).  Each
    experiment returns structured data plus a printer that renders rows in
    the shape the paper reports.  See DESIGN.md's per-experiment index. *)

module Ga = Repro_search.Ga

(* ------------------------------- Table 1 --------------------------- *)

val print_table1 : unit -> unit

(* ------------------------------- Figure 1 -------------------------- *)

type fig1_outcome =
  | F1_compiler_error
  | F1_compile_timeout
  | F1_runtime_crash
  | F1_runtime_timeout
  | F1_wrong_output
  | F1_correct

type fig1 = {
  f1_counts : (fig1_outcome * int) list;
  f1_total : int;
}

val fig1 : ?sequences:int -> ?seed:int -> ?jobs:int -> ?cache:bool -> unit -> fig1
(** Random optimization sequences applied to the FFT kernel, classified by
    compilation/replay outcome (paper: ~60% correct, ~15% compiler
    error/timeout, ~25% runtime-visible misbehaviour).  The sweep runs on
    the search's core pool ({!Pipeline.make_core_pool}): [jobs] worker
    domains, [cache] memoizing duplicate genomes/binaries; counts are
    identical for any setting. *)

val print_fig1 : fig1 -> unit

(* ------------------------------- Figure 2 -------------------------- *)

type fig2 = {
  f2_speedups : float array;     (** vs the Android compiler, ascending *)
  f2_android_ms : float;
}

val fig2 : ?binaries:int -> ?seed:int -> ?jobs:int -> ?cache:bool -> unit -> fig2
(** Replay speedup over the Android compiler for randomly generated
    *correct* binaries of the FFT kernel.  Evaluated in parallel batches;
    the draw stream and stopping rule match the sequential loop. *)

val print_fig2 : fig2 -> unit

(* ------------------------------- Figure 3 -------------------------- *)

type fig3_row = {
  f3_evals : int;
  f3_online : float;        (** single-trajectory estimate *)
  f3_online_lo75 : float;
  f3_online_hi75 : float;
  f3_online_lo95 : float;
  f3_online_hi95 : float;
  f3_offline : float;
}

type fig3 = {
  f3_rows : fig3_row list;
  f3_true_speedup : float;        (** O1 over O0 on the largest input *)
  f3_online_settle : int option;  (** evals until the online estimate stays
                                      within 10% of the true value *)
  f3_offline_settle : int option;
}

val fig3 : ?max_evals:int -> ?trajectories:int -> ?seed:int -> unit -> fig3

val print_fig3 : fig3 -> unit

(* ----------------------------- Figures 7/8/9 ----------------------- *)

(** One app's GA search and its whole-program measurements, the input
    Figures 7 and 9 both read. *)
type study = {
  st_app : Repro_apps.Registry.t;
  st_opt : Pipeline.optimized;
  st_speedups : Pipeline.speedups;
}

val studies :
  ?cfg:Ga.config -> ?seed:int -> ?apps:string list -> ?jobs:int ->
  ?cache:bool -> unit -> study list
(** For each app (default: all 21) in order: {!Pipeline.start} on
    [Pipeline.request ~seed ?cfg app] (seed 7, the quick config by
    default), {!Pipeline.run_session}, then {!Pipeline.measure_speedups}.
    Apps with no replayable hot region are skipped.  Nothing is memoized:
    each call searches again, so a caller that draws both figures builds
    one list and passes it to both.  [jobs]/[cache] set the evaluation
    pool and cannot change results. *)

type fig7_row = {
  f7_app : string;
  f7_cls : string;
  f7_o3 : float;
  f7_ga : float;
}

val fig7 : study list -> fig7_row list
val print_fig7 : fig7_row list -> unit

type fig8_row = {
  f8_app : string;
  f8_fractions : (string * float) list;   (** category name -> share *)
}

val fig8 : ?seed:int -> ?apps:string list -> unit -> fig8_row list
val print_fig8 : fig8_row list -> unit

type fig9_point = {
  f9_generation : int;
  f9_best : float;    (** speedup over Android of the best genome so far *)
  f9_worst : float;   (** of the worst measured genome in the generation *)
}

type fig9_row = { f9_app : string; f9_points : fig9_point list }

val fig9 : study list -> fig9_row list
val print_fig9 : fig9_row list -> unit

(* ----------------------------- Figures 10/11 ----------------------- *)

type fig10_row = {
  f10_app : string;
  f10_fork : float;
  f10_prep : float;
  f10_faults_cow : float;
  f10_total : float;
}

val fig10 : ?seed:int -> ?eager:bool -> ?apps:string list -> unit -> fig10_row list
(** [eager] switches to the CERE-style copy-at-fault ablation. *)

val print_fig10 : fig10_row list -> unit

type fig11_row = {
  f11_app : string;
  f11_program_mb : float;
  f11_common_mb : float;
}

val fig11 : ?seed:int -> ?apps:string list -> unit -> fig11_row list
val print_fig11 : fig11_row list -> unit

(** {1 Unsafe-pass survival vs corpus size}

    The experiment the source paper does not have: how many unsafe
    binaries does single-input replay verification let through, and how
    fast does a multi-input capture corpus (cross-input verification)
    close the hole? *)

type survival_genome = {
  sg_app : string;
  sg_label : string;
  sg_killed_at : int option;
  (** smallest corpus size K whose verification rejects the binary:
      [Some 1] means the primary capture already catches it, [None] that
      it survives the whole corpus *)
}

type survival_point = { sp_k : int; sp_tested : int; sp_survived : int }

type survival = {
  su_seed : int;
  su_kmax : int;
  su_points : survival_point list;   (** k = 1..kmax, survivors per k *)
  su_genomes : survival_genome list; (** per-(app, genome) kill positions *)
  su_pinned_killed_at : int option;  (** o2+unsafe-bce on FFT — the pinned
                                         guard-stripping genome *)
  su_corpus_entries : int;           (** secondary captures made *)
  su_capture_ms : float;             (** mean online ms per secondary capture *)
  su_corpus_checks : int;            (** corpus checks run (short-circuited) *)
}

val pinned_unsafe_genome : unit -> Repro_search.Genome.t
(** The regression-pinned guard-stripping genome: the Android pipeline's
    O2 body with every bounds guard dropped afterwards.  Passes K=1
    verification on FFT (guards never fire on the captured input) and is
    rejected by the corpus. *)

val survival : ?seed:int -> ?apps:string list -> unit -> survival
(** Capture an 8-input corpus per app (default: the five Scimark kernels)
    and find, for a fixed family of unsafe genomes, the smallest K at
    which each binary is rejected.  Deterministic in [(seed, apps)]: the
    only timings involved are the capture model's simulated
    milliseconds. *)

val print_survival : survival -> unit
