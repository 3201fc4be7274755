(* Tests for crash-safe checkpoint/resume: a search killed after any
   number of live batches and resumed from its journal must produce a
   search digest byte-identical to an uninterrupted run — at every
   -j/--no-cache combination, including resuming under a different one
   than the interrupted part ran with.  Damaged, truncated or mismatched
   checkpoints must degrade to a warned cold start routed through the
   quarantine policy, never to a wrong result. *)

module Pipeline = Repro_core.Pipeline
module Checkpoint = Repro_core.Checkpoint
module Ga = Repro_search.Ga
module App = Repro_apps.Registry
module Faults = Repro_util.Faults

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

let fft () = Option.get (App.find "FFT")

let capture = lazy (Option.get (Pipeline.capture_once ~seed:5 (fft ())))

(* a fresh path with no file behind it: resuming from it is `Absent,
   not `Damaged *)
let temp_ckpt () =
  let f = Filename.temp_file "repro_ckpt" ".bin" in
  Sys.remove f;
  f

let rm file = if Sys.file_exists file then Sys.remove file

let uninterrupted app cap =
  Pipeline.search_digest
    Pipeline.(run_session (start_search ~seed:3 ~cfg:tiny_cfg app cap))

(* An uninterrupted run's digest: the reference every scenario must hit. *)
let reference = lazy (uninterrupted (fft ()) (Lazy.force capture))

let run_with_ckpt ?jobs ?cache ?abort_after file =
  let q = Pipeline.create_quarantine_log () in
  match
    Pipeline.run_session
      (Pipeline.start_search ~seed:3 ~cfg:tiny_cfg ?jobs ?cache ~quarantine:q
         ~checkpoint:file ?abort_after (fft ()) (Lazy.force capture))
  with
  | opt -> Some (Pipeline.search_digest opt)
  | exception Checkpoint.Injected_abort -> None

(* ------------------------- kill/resume property ----------------------- *)

let test_kill_resume ~kill_at ~jobs1 ~cache1 ~jobs2 ~cache2 () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  (* first process: killed right after the [kill_at]-th live batch *)
  Alcotest.(check (option string)) "interrupted run dies" None
    (run_with_ckpt ~jobs:jobs1 ~cache:cache1 ~abort_after:kill_at file);
  Alcotest.(check bool) "checkpoint file exists" true (Sys.file_exists file);
  (* second process: resumes the journal and finishes *)
  match run_with_ckpt ~jobs:jobs2 ~cache:cache2 file with
  | None -> Alcotest.fail "resumed run aborted unexpectedly"
  | Some digest ->
    Alcotest.(check string) "resume digest = uninterrupted digest"
      (Lazy.force reference) digest

(* Crash after *every* batch: each process contributes exactly one live
   batch; the search still converges to the reference digest. *)
let test_crash_every_batch () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  let rec go guard =
    if guard = 0 then Alcotest.fail "search never finished"
    else
      match run_with_ckpt ~abort_after:1 file with
      | Some digest ->
        Alcotest.(check string) "digest after crash-every-batch"
          (Lazy.force reference) digest
      | None -> go (guard - 1)
  in
  go 200

(* The resumed process must do strictly less live work than a cold run —
   the resume-overhead claim, structurally. *)
let test_resume_replays_cheaply () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  ignore (run_with_ckpt ~abort_after:3 file);
  let s =
    Pipeline.start_search ~seed:3 ~cfg:tiny_cfg
      ~quarantine:(Pipeline.create_quarantine_log ())
      ~checkpoint:file (fft ()) (Lazy.force capture)
  in
  let r = Pipeline.run_session s in
  Alcotest.(check string) "stepped resume digest"
    (Lazy.force reference) (Pipeline.search_digest r);
  Alcotest.(check int) "replayed exactly the recorded batches" 3
    (Pipeline.session_replayed_batches s);
  Alcotest.(check bool) "no warnings on a clean resume" true
    (Pipeline.session_warnings s = [])

(* A non-default finish policy that depends on the batch index: the
   session must apply it identically to live and journal-replayed batches,
   so a killed-and-resumed run still lands on the uninterrupted digest. *)
let skewed_finish env ~batch tasks =
  Array.map
    (fun (ev_index, core) ->
       match Pipeline.outcome_of_core env ~ev_index core with
       | Ga.Measured m ->
         let skew = 1. +. (0.01 *. float_of_int ((batch * 7 + ev_index) mod 5)) in
         Ga.Measured { m with times = Array.map (fun t -> t *. skew) m.times }
       | o -> o)
    tasks

let skewed_search ?abort_after ?checkpoint () =
  Pipeline.start_search ~seed:3 ~cfg:tiny_cfg
    ~quarantine:(Pipeline.create_quarantine_log ()) ?checkpoint ?abort_after
    ~finish:skewed_finish (fft ()) (Lazy.force capture)

let test_finish_policy_resumes () =
  let uninterrupted =
    Pipeline.search_digest (Pipeline.run_session (skewed_search ()))
  in
  Alcotest.(check bool) "the policy changes the search" true
    (uninterrupted <> Lazy.force reference);
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  (match
     Pipeline.run_session (skewed_search ~abort_after:3 ~checkpoint:file ())
   with
   | _ -> Alcotest.fail "interrupted run should have aborted"
   | exception Checkpoint.Injected_abort -> ());
  let s = skewed_search ~checkpoint:file () in
  let resumed = Pipeline.search_digest (Pipeline.run_session s) in
  Alcotest.(check int) "replayed the recorded batches" 3
    (Pipeline.session_replayed_batches s);
  Alcotest.(check string) "resumed digest = uninterrupted digest"
    uninterrupted resumed

(* ------------------------ byte-determinism of files ------------------- *)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let test_checkpoint_bytes_deterministic () =
  let f1 = temp_ckpt () and f2 = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm f1; rm f2) @@ fun () ->
  ignore (run_with_ckpt ~jobs:1 ~cache:true ~abort_after:2 f1);
  ignore (run_with_ckpt ~jobs:4 ~cache:false ~abort_after:2 f2);
  Alcotest.(check string)
    "same journal bytes from -j1 cached and -j4 uncached"
    (read_file f1) (read_file f2)

(* -------------------------- damage handling --------------------------- *)

let quarantine_keys q =
  List.map (fun e -> e.Pipeline.q_binary) (Pipeline.quarantine_summary ~log:q ())

(* The search a resume is attempted for: app, capture and the digest of
   its uninterrupted run. *)
let fft_target =
  lazy (fft (), Lazy.force capture, Lazy.force reference)

(* FFT under its registry name with a smaller signal: same name, other
   content. *)
let fft_128_target =
  lazy
    (let app = fft () in
     let variant =
       match
         Astring.String.cut ~sep:"static int size = 256;" app.App.source
       with
       | Some (before, after) ->
         { app with App.source = before ^ "static int size = 128;" ^ after }
       | None -> Alcotest.fail "FFT source changed: variant anchor not found"
     in
     let cap = Option.get (Pipeline.capture_once ~seed:5 variant) in
     (variant, cap, uninterrupted variant cap))

let check_cold_start ?warning ?(target = fft_target) ~name file =
  let app, cap, expected = Lazy.force target in
  let q = Pipeline.create_quarantine_log () in
  let s =
    Pipeline.start_search ~seed:3 ~cfg:tiny_cfg ~quarantine:q
      ~checkpoint:file app cap
  in
  let warnings = Pipeline.session_warnings s in
  Alcotest.(check bool) (name ^ ": warned") true
    (match warning with
     | None -> warnings <> []
     | Some affix -> List.exists (Astring.String.is_infix ~affix) warnings);
  Alcotest.(check (list string)) (name ^ ": quarantined")
    [ "checkpoint:" ^ file ] (quarantine_keys q);
  let r = Pipeline.run_session s in
  Alcotest.(check int) (name ^ ": nothing replayed") 0
    (Pipeline.session_replayed_batches s);
  Alcotest.(check string) (name ^ ": cold digest still right")
    expected (Pipeline.search_digest r)

let test_garbage_checkpoint () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc "not a checkpoint at all\n");
  check_cold_start ~name:"garbage" file

let test_truncated_checkpoint () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  ignore (run_with_ckpt ~abort_after:2 file);
  let bytes = read_file file in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes / 2)));
  check_cold_start ~name:"truncated" file

let test_corrupt_checkpoint () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  ignore (run_with_ckpt ~abort_after:2 file);
  let bytes = Bytes.of_string (read_file file) in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x41));
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_bytes oc bytes);
  check_cold_start ~name:"corrupt" file

let checkpoint_aborted ~seed file =
  let q = Pipeline.create_quarantine_log () in
  match
    Pipeline.run_session
      (Pipeline.start_search ~seed ~cfg:tiny_cfg ~quarantine:q
         ~checkpoint:file ~abort_after:2 (fft ()) (Lazy.force capture))
  with
  | _ -> Alcotest.fail "checkpointed run should have aborted"
  | exception Checkpoint.Injected_abort -> ()

(* A journal from a different run configuration must be refused by the
   fingerprint check, not replayed into a wrong search. *)
let test_fingerprint_mismatch () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  checkpoint_aborted ~seed:4 file;
  (* now resume it under seed 3: configuration mismatch, cold start *)
  check_cold_start ~warning:"run configuration mismatch" ~name:"mismatch"
    file;
  (* the armed fault spec decides what is quarantined: a journal written
     under --faults must not resume unarmed *)
  rm file;
  (match Faults.parse_spec "seed=11,rate=0.05" with
   | Ok cfg -> Faults.enable cfg
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.disable (fun () ->
      checkpoint_aborted ~seed:3 file);
  check_cold_start ~warning:"run configuration mismatch"
    ~name:"faults mismatch" file;
  (* the fingerprint names the app by content, not only by name: FFT's
     journal must not resume for a same-named app with other code *)
  rm file;
  checkpoint_aborted ~seed:3 file;
  check_cold_start ~warning:"run configuration mismatch"
    ~target:fft_128_target ~name:"content mismatch" file

(* A journal that parses and carries the right fingerprint, but whose
   first batch asks for other draws than the configured search makes
   (its RNG cursor moved by one, the digest recomputed by the save), is
   abandoned at the first mismatch: one warning, one quarantine entry, and
   the whole search redone live from scratch. *)
let test_diverged_journal () =
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  Alcotest.(check (option string)) "interrupted run dies" None
    (run_with_ckpt ~abort_after:3 file);
  (match Checkpoint.load file with
   | `Loaded (t, _) ->
     let batches =
       match t.Checkpoint.batches with
       | b :: rest ->
         { b with Checkpoint.b_cursor = Int64.add b.Checkpoint.b_cursor 1L }
         :: rest
       | [] -> Alcotest.fail "empty journal"
     in
     Checkpoint.save { t with Checkpoint.batches } file
   | `Absent | `Damaged _ -> Alcotest.fail "expected a clean journal");
  let q = Pipeline.create_quarantine_log () in
  let s =
    Pipeline.start_search ~seed:3 ~cfg:tiny_cfg ~quarantine:q
      ~checkpoint:file (fft ()) (Lazy.force capture)
  in
  let r = Pipeline.run_session s in
  Alcotest.(check string) "cold digest = uninterrupted digest"
    (Lazy.force reference) (Pipeline.search_digest r);
  Alcotest.(check int) "nothing replayed" 0
    (Pipeline.session_replayed_batches s);
  Alcotest.(check (list string)) "warned once"
    [ Printf.sprintf
        "checkpoint %s: journal diverged from the configured search \
         (restarting cold)"
        file ]
    (Pipeline.session_warnings s);
  Alcotest.(check (list string)) "quarantined" [ "checkpoint:" ^ file ]
    (quarantine_keys q)

(* ----------------------- quarantine log scoping ----------------------- *)

let test_quarantine_scoping () =
  let a = Pipeline.create_quarantine_log () in
  let b = Pipeline.create_quarantine_log () in
  Pipeline.record_quarantine ~log:a ~key:"k1" ~reason:"r1" ();
  Pipeline.record_quarantine ~log:a ~key:"k1" ~reason:"r1" ();
  Pipeline.record_quarantine ~log:b ~key:"k2" ~reason:"r2" ();
  Alcotest.(check (list string)) "log a sees only its keys" [ "k1" ]
    (quarantine_keys a);
  Alcotest.(check (list string)) "log b sees only its keys" [ "k2" ]
    (quarantine_keys b);
  (match Pipeline.quarantine_summary ~log:a () with
   | [ e ] -> Alcotest.(check int) "counts accumulate" 2 e.Pipeline.q_count
   | _ -> Alcotest.fail "expected one entry");
  (* resetting one tenant must not clobber another (the old process-global
     reset bug) *)
  Pipeline.reset_quarantine ~log:a ();
  Alcotest.(check (list string)) "a reset" [] (quarantine_keys a);
  Alcotest.(check (list string)) "b survives a's reset" [ "k2" ]
    (quarantine_keys b);
  (* round-trip through the checkpoint representation *)
  let c = Pipeline.create_quarantine_log () in
  Pipeline.restore_quarantine c (Pipeline.quarantine_entries b);
  Alcotest.(check bool) "entries round-trip" true
    (Pipeline.quarantine_entries c = Pipeline.quarantine_entries b)

(* -------------------------- codec round-trip -------------------------- *)

let test_checkpoint_codec () =
  let t =
    { Checkpoint.fingerprint = "fp with\ttabs and\nnewlines";
      batches =
        [ { Checkpoint.b_cursor = 0x1234_5678_9abc_def0L;
            b_tasks =
              [ { Checkpoint.t_ev_index = 1; t_canon = "a b:1,2";
                  t_core =
                    Checkpoint.Core_measured
                      { cycles = 123; size = 45; key = "\x00\xffbin" } };
                { Checkpoint.t_ev_index = 2; t_canon = "c";
                  t_core = Checkpoint.Core_compile_failed "msg\twith tab" };
                { Checkpoint.t_ev_index = 3; t_canon = "d";
                  t_core = Checkpoint.Core_hung } ] };
          { Checkpoint.b_cursor = Int64.minus_one; b_tasks = [] } ];
      quarantine = [ ("key", "reason with spaces", 3) ] }
  in
  let file = temp_ckpt () in
  Fun.protect ~finally:(fun () -> rm file) @@ fun () ->
  Checkpoint.save t file;
  (match Checkpoint.load file with
   | `Loaded (t', warnings) ->
     Alcotest.(check bool) "no warnings" true (warnings = []);
     Alcotest.(check bool) "value round-trips" true (t = t')
   | `Absent | `Damaged _ -> Alcotest.fail "expected a clean load");
  Alcotest.(check bool) "absent file reported" true
    (Checkpoint.load (file ^ ".nope") = `Absent)

let () =
  Alcotest.run "checkpoint"
    [ ("kill-resume",
       [ Alcotest.test_case "kill@1 j1->j1" `Quick
           (test_kill_resume ~kill_at:1 ~jobs1:1 ~cache1:true ~jobs2:1
              ~cache2:true);
         Alcotest.test_case "kill@2 j4->j1" `Quick
           (test_kill_resume ~kill_at:2 ~jobs1:4 ~cache1:true ~jobs2:1
              ~cache2:true);
         Alcotest.test_case "kill@2 j1->j4 no-cache" `Quick
           (test_kill_resume ~kill_at:2 ~jobs1:1 ~cache1:true ~jobs2:4
              ~cache2:false);
         Alcotest.test_case "kill@3 no-cache->cached" `Quick
           (test_kill_resume ~kill_at:3 ~jobs1:1 ~cache1:false ~jobs2:1
              ~cache2:true);
         Alcotest.test_case "crash after every batch" `Quick
           test_crash_every_batch;
         Alcotest.test_case "resume replays, not re-evaluates" `Quick
           test_resume_replays_cheaply;
         Alcotest.test_case "batch-indexed finish policy resumes" `Quick
           test_finish_policy_resumes ]);
      ("format",
       [ Alcotest.test_case "journal bytes deterministic" `Quick
           test_checkpoint_bytes_deterministic;
         Alcotest.test_case "codec round-trip" `Quick test_checkpoint_codec ]);
      ("damage",
       [ Alcotest.test_case "garbage file" `Quick test_garbage_checkpoint;
         Alcotest.test_case "truncated file" `Quick test_truncated_checkpoint;
         Alcotest.test_case "corrupted byte" `Quick test_corrupt_checkpoint;
         Alcotest.test_case "config mismatch" `Quick
           test_fingerprint_mismatch;
         Alcotest.test_case "diverged journal restarts cold" `Quick
           test_diverged_journal ]);
      ("quarantine",
       [ Alcotest.test_case "per-run scoping" `Quick
           test_quarantine_scoping ]) ]
