(* End-to-end tests of the pipeline (Figure 6) and the experiment drivers. *)

module App = Repro_apps.Registry
module Pipeline = Repro_core.Pipeline
module E = Repro_core.Experiments
module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool

let fft () = Option.get (App.find "FFT")

(* FFT under its registry name with other code: [run]'s checksum sums
   the imaginary parts instead of the real ones. *)
let fft_variant () =
  let app = fft () in
  match Astring.String.cut ~sep:"s = s + re[i];" app.App.source with
  | Some (before, after) ->
    { app with App.source = before ^ "s = s + im[i];" ^ after }
  | None -> Alcotest.fail "FFT source changed: variant anchor not found"

let tiny_cfg =
  { Ga.quick_config with Ga.population = 8; generations = 4; max_identical = 30 }

let env_for app =
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  (cap, Pipeline.make_eval_env app cap)

let test_eval_env_baselines () =
  let _, env = env_for (fft ()) in
  Alcotest.(check bool) "android baseline measured" true
    (env.Pipeline.android_region_ms > 0.0);
  Alcotest.(check bool) "o3 baseline measured" true
    (env.Pipeline.o3_region_ms > 0.0);
  Alcotest.(check bool) "o3 beats android on FFT region replay" true
    (env.Pipeline.o3_region_ms < env.Pipeline.android_region_ms)

let test_genome_outcomes () =
  let _, env = env_for (fft ()) in
  let genome_of spec =
    List.map (fun (name, ps) -> { Genome.g_pass = name; g_params = ps }) spec
  in
  let tasks =
    Array.of_list
      (List.mapi
         (fun i spec -> (i, genome_of spec))
         [ Repro_lir.Pipelines.o2; [ ("fast-math", [| 1; 1 |]) ];
           [ ("unroll", [| 999; 4; 0 |]) ] ])
  in
  let cores = Evalpool.evaluate_batch (Pipeline.make_core_pool env) tasks in
  let outcome i = Pipeline.outcome_of_core env ~ev_index:i cores.(i) in
  (match outcome 0 with
   | Ga.Measured { times; size; _ } ->
     Alcotest.(check int) "10 replays" 10 (Array.length times);
     Alcotest.(check bool) "size > 0" true (size > 0)
   | _ -> Alcotest.fail "O2 should measure");
  (match outcome 1 with
   | Ga.Wrong_output -> ()
   | _ -> Alcotest.fail "fast-math should be rejected on FFT");
  (match outcome 2 with
   | Ga.Compile_failed _ -> ()
   | _ -> Alcotest.fail "invalid parameter should fail compilation")

(* The dexfile and Android binary memos key on the source, not the name:
   an app reusing a registry name with other code gets its own code. *)
let test_same_name_other_source () =
  let app = fft () and variant = fft_variant () in
  Alcotest.(check string) "same name" app.App.name variant.App.name;
  Alcotest.(check bool) "own dexfile" false
    (App.dexfile variant == App.dexfile app);
  Alcotest.(check bool) "own Android binary" true
    (Repro_lir.Binary.digest (Pipeline.android_binary_for variant)
     <> Repro_lir.Binary.digest (Pipeline.android_binary_for app))

let test_optimize_beats_android () =
  let app = fft () in
  let cap, _ = env_for app in
  let opt =
    Pipeline.(run_session (start_search ~seed:3 ~cfg:tiny_cfg app cap))
  in
  match opt.Pipeline.ga.Ga.best with
  | None -> Alcotest.fail "GA found nothing"
  | Some (_, fit) ->
    Alcotest.(check bool) "best replay beats android" true
      (fit < opt.Pipeline.env.Pipeline.android_region_ms);
    Alcotest.(check bool) "a verified binary exists" true
      (opt.Pipeline.best_binary <> None)

let test_final_binary_overlays_region () =
  let app = fft () in
  let cap, _ = env_for app in
  let opt =
    Pipeline.(run_session (start_search ~seed:3 ~cfg:tiny_cfg app cap))
  in
  let final = Pipeline.final_binary opt in
  let android = Pipeline.android_binary_for app in
  Alcotest.(check bool) "covers at least the android methods" true
    (List.length (Repro_lir.Binary.mids final)
     >= List.length (Repro_lir.Binary.mids android));
  let sp = Pipeline.measure_speedups ~runs:2 app opt in
  Alcotest.(check bool) "GA speedup > 1" true (sp.Pipeline.ga_speedup > 1.0)

(* Evaluations the process-wide pool has been asked for so far. *)
let pool_tasks () = (Evalpool.cumulative_stats ()).Evalpool.tasks

(* [studies ()] and the evaluations it requested. *)
let counted_studies () =
  let before = pool_tasks () in
  let studies = E.studies ~cfg:tiny_cfg ~apps:[ "FFT" ] () in
  (studies, pool_tasks () - before)

let one_study = function
  | [ s ] -> s
  | l -> Alcotest.failf "one study expected, got %d" (List.length l)

(* A study list holds each app's one search: building it evaluates exactly
   that search's genomes, and both figures read the list without
   evaluating anything. *)
let test_one_search_per_study_list () =
  let studies, evals = counted_studies () in
  let s = one_study studies in
  Alcotest.(check int) "the list evaluates its search once"
    s.E.st_opt.Pipeline.pool_stats.Evalpool.tasks evals;
  Alcotest.(check bool) "the search evaluated genomes" true (evals > 0);
  let before = pool_tasks () in
  ignore (E.fig7 studies);
  ignore (E.fig9 studies);
  Alcotest.(check int) "fig7 and fig9 evaluate nothing" 0
    (pool_tasks () - before)

(* Nothing memoizes studies: a second list searches again, by the same
   amount and to the same digest. *)
let test_studies_computed_afresh () =
  let a, evals_a = counted_studies () in
  let b, evals_b = counted_studies () in
  Alcotest.(check int) "the second list evaluates again" evals_a evals_b;
  Alcotest.(check bool) "a fresh search" true (one_study a != one_study b);
  Alcotest.(check string) "same search digest"
    (Pipeline.search_digest (one_study a).E.st_opt)
    (Pipeline.search_digest (one_study b).E.st_opt)

let test_fig1_classifies () =
  let f = E.fig1 ~sequences:20 ~seed:5 () in
  Alcotest.(check int) "total" 20 f.E.f1_total;
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 f.E.f1_counts in
  Alcotest.(check int) "counts sum" 20 sum;
  let correct =
    List.assoc E.F1_correct f.E.f1_counts
  in
  Alcotest.(check bool) "some correct, some not" true
    (correct > 0 && correct < 20)

let test_fig2_speedups () =
  let f = E.fig2 ~binaries:8 ~seed:5 () in
  Alcotest.(check int) "8 binaries" 8 (Array.length f.E.f2_speedups);
  Array.iter
    (fun s -> Alcotest.(check bool) "positive" true (s > 0.0))
    f.E.f2_speedups

let test_fig3_offline_converges_faster () =
  let f = E.fig3 ~max_evals:2000 ~trajectories:40 ~seed:5 () in
  Alcotest.(check bool) "true speedup > 1.3" true (f.E.f3_true_speedup > 1.3);
  match f.E.f3_offline_settle, f.E.f3_online_settle with
  | Some off, Some on ->
    Alcotest.(check bool) "offline settles earlier" true (off <= on)
  | Some _, None -> ()  (* online never settled: even stronger *)
  | None, _ -> Alcotest.fail "offline never settled"

let test_fig10_and_11_rows () =
  let apps = Some [ "FFT"; "LU" ] in
  let rows10 = E.fig10 ?apps () in
  Alcotest.(check int) "two rows" 2 (List.length rows10);
  List.iter
    (fun r ->
       Alcotest.(check bool) "total = parts" true
         (abs_float
            (r.E.f10_total -. (r.E.f10_fork +. r.E.f10_prep +. r.E.f10_faults_cow))
          < 1e-9))
    rows10;
  let rows11 = E.fig11 ?apps () in
  List.iter
    (fun r ->
       Alcotest.(check bool) "common ~12.6MB" true
         (abs_float (r.E.f11_common_mb -. 12.6) < 0.2))
    rows11

let test_fig8_rows () =
  let rows = E.fig8 ~apps:[ "DroidFish"; "Sieve" ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
       let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 r.E.f8_fractions in
       Alcotest.(check (float 1e-6)) (r.E.f8_app ^ " sums to 1") 1.0 total)
    rows

let test_fig7_and_9_from_one_list () =
  let studies = E.studies ~cfg:tiny_cfg ~apps:[ "FFT" ] () in
  let rows = E.fig7 studies in
  (match rows with
   | [ r ] ->
     Alcotest.(check bool) "GA speedup sensible" true
       (r.E.f7_ga > 0.9 && r.E.f7_ga < 5.0)
   | _ -> Alcotest.fail "one row expected");
  let evo = E.fig9 studies in
  (match evo with
   | [ r ] ->
     Alcotest.(check bool) "points per generation" true
       (List.length r.E.f9_points >= 2);
     let last = List.nth r.E.f9_points (List.length r.E.f9_points - 1) in
     let first = List.hd r.E.f9_points in
     Alcotest.(check bool) "best line monotone" true
       (last.E.f9_best >= first.E.f9_best)
   | _ -> Alcotest.fail "one row expected")

(* The corpus closes the guard-stripping hole: at the defaults, K=1 already
   kills an unsafe pair, survivors strictly fall as K grows, and the pinned
   o2+unsafe-bce genome (which passes single-input verification) dies by
   K=4. *)
let test_survival_falls_with_k () =
  let s = E.survival () in
  let survivors = List.map (fun p -> p.E.sp_survived) s.E.su_points in
  (match s.E.su_points with
   | p :: _ ->
     Alcotest.(check bool) "a kill at K=1" true (p.E.sp_survived < p.E.sp_tested)
   | [] -> Alcotest.fail "no survival points");
  let rec falling = function
    | a :: (b :: _ as rest) -> a > b && falling rest
    | _ -> true
  in
  Alcotest.(check bool) "survivors strictly fall with K" true (falling survivors);
  Alcotest.(check bool) "pinned genome killed by K=4" true
    (match s.E.su_pinned_killed_at with Some k -> k <= 4 | None -> false)

let () =
  Alcotest.run "core"
    [ ("pipeline",
       [ Alcotest.test_case "baselines" `Quick test_eval_env_baselines;
         Alcotest.test_case "genome outcomes" `Quick test_genome_outcomes;
         Alcotest.test_case "same name, other source" `Quick
           test_same_name_other_source;
         Alcotest.test_case "optimize beats android" `Slow test_optimize_beats_android;
         Alcotest.test_case "final binary" `Slow
           test_final_binary_overlays_region ]);
      ("experiments",
       [ Alcotest.test_case "fig1" `Quick test_fig1_classifies;
         Alcotest.test_case "fig2" `Quick test_fig2_speedups;
         Alcotest.test_case "fig3" `Quick test_fig3_offline_converges_faster;
         Alcotest.test_case "fig10/fig11" `Quick test_fig10_and_11_rows;
         Alcotest.test_case "fig8" `Quick test_fig8_rows;
         Alcotest.test_case "fig7/fig9" `Slow test_fig7_and_9_from_one_list;
         Alcotest.test_case "one search per study list" `Slow
           test_one_search_per_study_list;
         Alcotest.test_case "studies are computed afresh" `Slow
           test_studies_computed_afresh;
         Alcotest.test_case "survival falls with K" `Slow
           test_survival_falls_with_k ]) ]
