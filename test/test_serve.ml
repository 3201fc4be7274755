(* Tests for the multi-app serve scheduler: N concurrent searches over one
   shared domain pool must each produce exactly the digest a standalone
   [Pipeline.run_session] produces, make progress concurrently with
   round-robin fairness, respect admission control and backpressure, keep
   tenant quarantine logs isolated, and survive a mid-serve kill via their
   per-job checkpoints. *)

module Pipeline = Repro_core.Pipeline
module Serve = Repro_core.Serve
module Checkpoint = Repro_core.Checkpoint
module Ga = Repro_search.Ga
module App = Repro_apps.Registry

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

let app name = Option.get (App.find name)

(* What [repro optimize APP --seed S] would produce, for digest parity. *)
let standalone name seed =
  let _, session =
    Option.get
      (Pipeline.start ~quarantine:(Pipeline.create_quarantine_log ())
         (Pipeline.request ~seed ~cfg:tiny_cfg (app name)))
  in
  Pipeline.search_digest (Pipeline.run_session session)

let fft_digest = lazy (standalone "FFT" 5)
let bubble_digest = lazy (standalone "BubbleSort" 7)

let requests () =
  [ Serve.request ~seed:5 ~cfg:tiny_cfg (app "FFT");
    Serve.request ~seed:7 ~cfg:tiny_cfg (app "BubbleSort") ]

let with_serve ?jobs ?queue_capacity ?abort_after ~max_active f =
  f (Serve.create ?jobs ?queue_capacity ?abort_after ~max_active ())

let digests_of t =
  List.map
    (fun r ->
       match r.Serve.rp_outcome, r.Serve.rp_digest with
       | `Finished, Some d -> d
       | `Finished, None -> Alcotest.fail "finished without a digest"
       | (`Failed why), _ -> Alcotest.fail ("job failed: " ^ why)
       | `Unstarted, _ -> Alcotest.fail "job never started")
    (Serve.reports t)

(* -------------------- concurrent digests = standalone ----------------- *)

let test_serve_matches_standalone ~jobs () =
  with_serve ~jobs ~max_active:2 @@ fun t ->
  List.iter (fun r -> ignore (Serve.submit t r)) (requests ());
  Serve.drive t;
  Alcotest.(check (list string)) "both tenants reproduce standalone digests"
    [ Lazy.force fft_digest; Lazy.force bubble_digest ]
    (digests_of t);
  let s = Serve.stats t in
  Alcotest.(check bool) "apps actually ran concurrently" true
    (s.Serve.st_concurrent_rounds >= 2);
  Alcotest.(check int) "peak active" 2 s.Serve.st_peak_active;
  Alcotest.(check (float 0.0)) "round-robin fairness is exact" 0.0
    s.Serve.st_fairness_spread

(* ---------------------- admission and backpressure -------------------- *)

let test_admission_control () =
  with_serve ~max_active:1 ~queue_capacity:1 @@ fun t ->
  let r1 = Serve.request ~seed:5 ~cfg:tiny_cfg (app "FFT") in
  let r2 = Serve.request ~seed:7 ~cfg:tiny_cfg (app "BubbleSort") in
  let r3 = Serve.request ~seed:9 ~cfg:tiny_cfg (app "FFT") in
  Alcotest.(check bool) "first fills the slot" true
    (Serve.submit t r1 = `Admitted);
  Alcotest.(check bool) "second queues" true (Serve.submit t r2 = `Queued 1);
  Alcotest.(check bool) "third bounces off the full queue" true
    (Serve.submit t r3 = `Rejected);
  Serve.drive t;
  let finished =
    List.filter (fun r -> r.Serve.rp_outcome = `Finished) (Serve.reports t)
  in
  Alcotest.(check int) "admitted and queued jobs both finish" 2
    (List.length finished);
  let s = Serve.stats t in
  Alcotest.(check int) "rejection counted" 1 s.Serve.st_rejected;
  Alcotest.(check int) "never more than max_active" 1 s.Serve.st_peak_active;
  (* serialized tenants still match their standalone digests *)
  Alcotest.(check (list (option string))) "digests intact"
    [ Some (Lazy.force fft_digest); Some (Lazy.force bubble_digest); None ]
    (List.map (fun r -> r.Serve.rp_digest) (Serve.reports t))

(* ------------------------ kill mid-serve, resume ---------------------- *)

let test_serve_kill_resume () =
  let f1 = Filename.temp_file "repro_serve_a" ".bin" in
  let f2 = Filename.temp_file "repro_serve_b" ".bin" in
  Sys.remove f1;
  Sys.remove f2;
  let rm f = if Sys.file_exists f then Sys.remove f in
  Fun.protect ~finally:(fun () -> rm f1; rm f2) @@ fun () ->
  let reqs () =
    [ Serve.request ~seed:5 ~cfg:tiny_cfg ~checkpoint:f1 (app "FFT");
      Serve.request ~seed:7 ~cfg:tiny_cfg ~checkpoint:f2 (app "BubbleSort") ]
  in
  (* process 1: killed after 5 live batches across the two tenants *)
  let killed =
    with_serve ~abort_after:5 ~max_active:2 @@ fun t ->
    List.iter (fun r -> ignore (Serve.submit t r)) (reqs ());
    match Serve.drive t with
    | () -> Alcotest.fail "serve should have been killed"
    | exception Checkpoint.Injected_abort ->
      (Serve.stats t).Serve.st_live_batches
  in
  Alcotest.(check bool) "both checkpoints written" true
    (Sys.file_exists f1 && Sys.file_exists f2);
  (* process 2: same requests, same files — resumes and finishes *)
  with_serve ~max_active:2 @@ fun t ->
  List.iter (fun r -> ignore (Serve.submit t r)) (reqs ());
  Serve.drive t;
  Alcotest.(check (list string)) "resumed digests = standalone"
    [ Lazy.force fft_digest; Lazy.force bubble_digest ]
    (digests_of t);
  (* journal replay serves the killed process's batches without
     evaluating: the kill costs at most 5% extra live batches.  The resumed
     digests equal the standalone ones, so an uninterrupted run performs
     exactly the resumed run's replayed plus live batches. *)
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 (Serve.reports t) in
  let live_resumed = sum (fun r -> r.Serve.rp_live_batches) in
  let replayed = sum (fun r -> r.Serve.rp_replayed_batches) in
  Alcotest.(check bool) "kill + resume within 5% of uninterrupted live batches"
    true
    (float_of_int (killed + live_resumed)
     <= 1.05 *. float_of_int (replayed + live_resumed));
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (r.Serve.rp_app ^ " replayed its journal") true
         (r.Serve.rp_replayed_batches > 0);
       Alcotest.(check bool)
         (r.Serve.rp_app ^ " clean resume, no warnings") true
         (r.Serve.rp_warnings = []))
    (Serve.reports t)

(* ----------------------- tenant quarantine isolation ------------------ *)

let test_tenant_quarantine_isolated () =
  let before = List.length (Pipeline.quarantine_summary ()) in
  with_serve ~max_active:2 @@ fun t ->
  List.iter (fun r -> ignore (Serve.submit t r)) (requests ());
  Serve.drive t;
  Alcotest.(check int) "global log untouched by tenants" before
    (List.length (Pipeline.quarantine_summary ()));
  (* a tenant with a corrupt checkpoint quarantines into its own log *)
  let bad = Filename.temp_file "repro_serve_bad" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  Out_channel.with_open_bin bad (fun oc ->
      Out_channel.output_string oc "garbage");
  with_serve ~max_active:1 @@ fun t2 ->
  ignore
    (Serve.submit t2
       (Serve.request ~seed:5 ~cfg:tiny_cfg ~checkpoint:bad (app "FFT")));
  Serve.drive t2;
  (match Serve.reports t2 with
   | [ r ] ->
     Alcotest.(check bool) "job still finishes" true
       (r.Serve.rp_outcome = `Finished);
     Alcotest.(check bool) "damage warned" true (r.Serve.rp_warnings <> []);
     Alcotest.(check int) "quarantined in the tenant's log" 1
       r.Serve.rp_quarantined
   | _ -> Alcotest.fail "expected one report");
  Alcotest.(check (list string)) "and visible via quarantine_of"
    [ "checkpoint:" ^ bad ]
    (List.map
       (fun e -> e.Pipeline.q_binary)
       (Serve.quarantine_of t2 "FFT"));
  Alcotest.(check int) "global log still untouched" before
    (List.length (Pipeline.quarantine_summary ()))

let () =
  Alcotest.run "serve"
    [ ("scheduler",
       [ Alcotest.test_case "2 tenants = standalone (j1)" `Quick
           (test_serve_matches_standalone ~jobs:1);
         Alcotest.test_case "2 tenants = standalone (shared pool, j4)"
           `Quick (test_serve_matches_standalone ~jobs:4);
         Alcotest.test_case "admission control + backpressure" `Quick
           test_admission_control ]);
      ("resume",
       [ Alcotest.test_case "kill mid-serve, resume both tenants" `Quick
           test_serve_kill_resume ]);
      ("quarantine",
       [ Alcotest.test_case "tenant logs isolated" `Quick
           test_tenant_quarantine_isolated ]) ]
