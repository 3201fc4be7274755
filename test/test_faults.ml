(* Fault-injection campaign: prove the verification net.

   The paper's safety story (§3.4) is that replay verification maps let the
   pipeline discard miscompiled binaries before a user ever runs them.  These
   tests manufacture the failures that story must survive:

   - unit tests pin the Faults registry itself (spec parsing, determinism of
     the fire decision, scoping, counting);
   - a qcheck campaign plants each class of semantic miscompilation
     (flip-branch, drop-store, corrupt-const, reorder-suspend) into a
     known-good region binary and asserts every mutant is either caught by
     Verify.check or provably benign under a full differential replay;
   - loader/executor fault points are shown to surface as non-Passed verdicts
     whenever they actually fire;
   - a full GA run at a 10% fault rate still returns a verified-correct
     winner, byte-identical across -j1 / -j4.

   FAULTS_COUNT overrides the per-mutator case budget (CI smoke runs use a
   small value; the acceptance campaign uses the default, >= 200 total). *)

module Faults = Repro_util.Faults
module Trace = Repro_util.Trace
module Rng = Repro_util.Rng
module Ga = Repro_search.Ga
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry
module Lir = Repro_lir
module Hir = Repro_hgraph.Hir
module Vm = Repro_vm
open Repro_capture

let faults_count =
  match Option.bind (Sys.getenv_opt "FAULTS_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 60

(* Tests must never leak an armed registry into each other (alcotest runs
   them in one process). *)
let clean f () =
  Fun.protect
    ~finally:(fun () -> Faults.disable (); Pipeline.reset_quarantine ())
    f

(* --------------------------- registry unit tests --------------------- *)

let cfg ?(seed = 7) ?(rate = 0.5) ?only () =
  { Faults.fseed = seed; frate = rate; fonly = only }

let test_spec_roundtrip () =
  let specs =
    [ "seed=3,rate=0.25";
      "seed=0,rate=1";
      "seed=42,rate=0.1,only=miscompile+exec-hang";
      "rate=0.5";
      "seed=9" ]
  in
  List.iter
    (fun s ->
      match Faults.parse_spec s with
      | Error e -> Alcotest.failf "spec %S rejected: %s" s e
      | Ok c ->
        (match Faults.parse_spec (Faults.spec_string c) with
         | Ok c' ->
           Alcotest.(check bool) ("roundtrip " ^ s) true (c = c')
         | Error e -> Alcotest.failf "canonical %S rejected: %s" s e))
    specs

let test_spec_errors () =
  List.iter
    (fun s ->
      match Faults.parse_spec s with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" s
      | Error _ -> ())
    [ "rate=2.0"; "rate=-0.1"; "seed=x"; "only=not-a-point"; "bogus=1" ]

let test_fire_deterministic_and_bounded () =
  clean (fun () ->
    (* rate 0: never fires; rate 1: always fires *)
    Faults.enable (cfg ~rate:0.0 ());
    for key = 0 to 99 do
      List.iter
        (fun p ->
          Alcotest.(check bool) "rate 0 never fires" false
            (Faults.fire p ~key))
        Faults.all_points
    done;
    Faults.enable (cfg ~rate:1.0 ());
    for key = 0 to 99 do
      List.iter
        (fun p ->
          Alcotest.(check bool) "rate 1 always fires" true
            (Faults.fire p ~key))
        Faults.all_points
    done;
    (* the decision is a pure function of (seed, point, key) *)
    Faults.enable (cfg ~rate:0.3 ());
    let sample () =
      List.concat_map
        (fun p -> List.init 200 (fun key -> Faults.fire p ~key))
        Faults.all_points
    in
    let a = sample () in
    Alcotest.(check bool) "fire is replayable" true (a = sample ());
    Alcotest.(check bool) "rate 0.3 fires sometimes" true
      (List.exists Fun.id a);
    Alcotest.(check bool) "rate 0.3 spares sometimes" true
      (List.exists not a))
    ()

let test_only_filter () =
  clean (fun () ->
    Faults.enable (cfg ~rate:1.0 ~only:[ Faults.Exec_hang ] ());
    Alcotest.(check bool) "selected point fires" true
      (Faults.fire Faults.Exec_hang ~key:1);
    List.iter
      (fun p ->
        if p <> Faults.Exec_hang then
          Alcotest.(check bool)
            ("filtered point " ^ Faults.point_name p ^ " silent")
            false (Faults.fire p ~key:1))
      Faults.all_points)
    ()

let test_disabled_is_silent () =
  Faults.disable ();
  List.iter
    (fun p ->
      Alcotest.(check bool) "disabled never fires" false (Faults.fire p ~key:0))
    Faults.all_points;
  Alcotest.(check bool) "no scope outside scoped" true
    (Faults.scope_key () = None)

let test_scoped_restores () =
  clean (fun () ->
    Faults.enable (cfg ());
    Alcotest.(check bool) "no scope initially" true (Faults.scope_key () = None);
    let inner =
      Faults.scoped ~key:17 (fun () ->
        let outer = Faults.scope_key () in
        let nested = Faults.scoped ~key:99 (fun () -> Faults.scope_key ()) in
        (outer, nested, Faults.scope_key ()))
    in
    Alcotest.(check bool) "scope visible / nested / restored" true
      (inner = (Some 17, Some 99, Some 17));
    Alcotest.(check bool) "scope cleared on exit" true
      (Faults.scope_key () = None);
    (* restored even when the body raises *)
    (try Faults.scoped ~key:5 (fun () -> failwith "boom") with _ -> ());
    Alcotest.(check bool) "scope cleared after raise" true
      (Faults.scope_key () = None))
    ()

let test_injection_counts () =
  clean (fun () ->
    Faults.enable (cfg ());
    Alcotest.(check int) "fresh counts" 0 (Faults.injected ());
    Faults.record Faults.Miscompile;
    Faults.record Faults.Miscompile;
    Faults.record Faults.Exec_crash;
    Alcotest.(check int) "total" 3 (Faults.injected ());
    let by_point = Faults.injected_by_point () in
    Alcotest.(check int) "per-point entries" (List.length Faults.all_points)
      (List.length by_point);
    Alcotest.(check int) "miscompile count" 2
      (List.assoc Faults.Miscompile by_point);
    Alcotest.(check int) "exec-crash count" 1
      (List.assoc Faults.Exec_crash by_point);
    Faults.enable (cfg ());
    Alcotest.(check int) "enable resets counts" 0 (Faults.injected ()))
    ()

(* ------------------------- shared replay fixture --------------------- *)

type fixture = {
  dx : Repro_dex.Bytecode.dexfile;
  snap : Snapshot.t;
  vmap : Verify.reference;
  binary : Lir.Binary.t;        (* known-good region binary... *)
  loaded : Lir.Blockexec.loaded;  (* ...loaded for replay *)
  ref_ret : Vm.Value.t option;  (* reference interpreted replay... *)
  ref_writes : (int * int64) list;  (* ...and its full-scan write set *)
}

let fixture =
  lazy
    (let app = Option.get (App.find "FFT") in
     let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
     let dx = App.dexfile app in
     let snap = cap.Pipeline.snapshot in
     let vmap = Verify.collect dx snap in
     let region = Pipeline.region_methods app cap.Pipeline.hot_mid in
     let binary =
       Lir.Compile.(llvm_binary (frontend dx)) Lir.Pipelines.o2 region
     in
     let loaded = Lir.Blockexec.load binary in
     (match Verify.check dx snap vmap loaded with
      | Verify.Passed _ -> ()
      | _ -> Alcotest.fail "fixture binary does not verify");
     let r = Replay.run dx snap Replay.Interpreter in
     let ref_ret =
       match r.Replay.outcome with
       | Replay.Finished (ret, _) -> ret
       | _ -> Alcotest.fail "reference replay failed"
     in
     let ref_writes = Verify.diff_against_snapshot_full r.Replay.ctx snap in
     { dx; snap; vmap; binary; loaded; ref_ret; ref_writes })

(* Replace [mid]'s code in the fixture binary with [f']. *)
let with_mutant fx mid f' =
  let funcs =
    List.map
      (fun m ->
        if m = mid then f' else Option.get (Lir.Binary.find fx.binary m))
      (Lir.Binary.mids fx.binary)
  in
  Lir.Binary.create funcs

(* Apply mutator [m] to some function of the fixture binary, trying methods
   in an rng-rotated order so the campaign spreads damage across the whole
   region.  None when the mutator has no applicable site anywhere. *)
let plant_mutant fx m rng =
  let mids = List.sort compare (Lir.Binary.mids fx.binary) in
  let n = List.length mids in
  let start = Rng.int rng n in
  let rec go i =
    if i >= n then None
    else
      let mid = List.nth mids ((start + i) mod n) in
      let f = Option.get (Lir.Binary.find fx.binary mid) in
      match m.Lir.Passes.m_apply rng f with
      | Some f' -> Some (mid, with_mutant fx mid f')
      | None -> go (i + 1)
  in
  go 0

(* A mutant that slipped past Verify.check must be observationally equivalent
   to the interpreter: same return value, same full-scan write set. *)
let provably_benign fx mutant =
  let r =
    Replay.run fx.dx fx.snap (Replay.Optimized (Lir.Blockexec.load mutant))
  in
  match r.Replay.outcome with
  | Replay.Finished (ret, _) ->
    let same_ret =
      match ret, fx.ref_ret with
      | Some a, Some b -> Vm.Value.equal a b
      | None, None -> true
      | _ -> false
    in
    same_ret
    && Verify.diff_against_snapshot_full r.Replay.ctx fx.snap = fx.ref_writes
  | _ -> false

(* ---------------------- miscompilation campaign ---------------------- *)

(* One property per mutator class: every planted semantic fault is either
   caught by the verification map or provably benign. *)
let prop_mutator_caught m =
  QCheck.Test.make
    ~name:(Printf.sprintf "faults: %s caught or benign" m.Lir.Passes.m_name)
    ~count:faults_count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let fx = Lazy.force fixture in
      let rng = Rng.create seed in
      match plant_mutant fx m rng with
      | None -> QCheck.assume_fail ()   (* no applicable site: vacuous *)
      | Some (mid, mutant) ->
        (match
           Verify.check fx.dx fx.snap fx.vmap (Lir.Blockexec.load mutant)
         with
         | Verify.Wrong_output | Verify.Crashed _ | Verify.Hung -> true
         | Verify.Passed _ ->
           provably_benign fx mutant
           || QCheck.Test.fail_reportf
                "seed %d: %s on mid %d passed verification but differs \
                 from the interpreter"
                seed m.Lir.Passes.m_name mid))

let prop_mutators_apply =
  (* the campaign is only meaningful if each class actually finds sites *)
  QCheck.Test.make ~name:"faults: every mutator class applicable" ~count:1
    QCheck.unit
    (fun () ->
      let fx = Lazy.force fixture in
      List.for_all
        (fun m -> plant_mutant fx m (Rng.create 1) <> None)
        Lir.Passes.mutators)

(* -------------------- loader / executor fault points ----------------- *)

(* With the registry armed at rate 1 and restricted to one point, a replay
   opted in via faults_key must be damaged — and Verify.check must say so. *)
let check_point_caught point expected_verdict () =
  clean (fun () ->
    let fx = Lazy.force fixture in
    Faults.enable (cfg ~seed:3 ~rate:1.0 ~only:[ point ] ());
    let verdict = Verify.check ~faults_key:11 fx.dx fx.snap fx.vmap fx.loaded in
    Alcotest.(check bool)
      (Printf.sprintf "%s fired at least once" (Faults.point_name point))
      true
      (Faults.injected () > 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s" (Faults.point_name point) expected_verdict)
      true
      (match verdict, expected_verdict with
       | Verify.Crashed _, "crashed" -> true
       | Verify.Hung, "hung" -> true
       | Verify.Wrong_output, "wrong-output" -> true
       | (Verify.Wrong_output | Verify.Crashed _), "rejected" -> true
       | _ -> false);
    (* the reference interpreted replay is never in scope: unaffected *)
    let r = Replay.run fx.dx fx.snap Replay.Interpreter in
    Alcotest.(check bool) "reference replay undamaged" true
      (match r.Replay.outcome with
       | Replay.Finished (ret, _) ->
         (match ret, fx.ref_ret with
          | Some a, Some b -> Vm.Value.equal a b
          | None, None -> true
          | _ -> false)
       | _ -> false))
    ()

(* Storage fault points: the snapshot blob reads back damaged from the
   device store.  The injected damage travels through [Storage.read
   ?damage] — the same checksum machinery that guards real corruption —
   and must surface as a Crashed verdict with a "storage:"-prefixed
   reason, which the quarantine policy then treats like any other
   persistent failure. *)
let check_store_point_caught point () =
  clean (fun () ->
    let fx = Lazy.force fixture in
    let storage = Repro_os.Storage.create () in
    Snapshot.set_store (Some storage);
    Fun.protect
      ~finally:(fun () ->
          Snapshot.set_store None;
          Snapshot.invalidate_templates ())
      (fun () ->
         Snapshot.store storage fx.snap;
         Repro_os.Storage.flush storage;
         Snapshot.invalidate_templates ();
         Faults.enable (cfg ~seed:3 ~rate:1.0 ~only:[ point ] ());
         (match Verify.check ~faults_key:11 fx.dx fx.snap fx.vmap fx.loaded with
          | Verify.Crashed msg ->
            Alcotest.(check bool) "storage-prefixed reason" true
              (String.length msg >= 8 && String.sub msg 0 8 = "storage:")
          | _ ->
            Alcotest.failf "%s did not crash the replay"
              (Faults.point_name point));
         Alcotest.(check bool) "fired" true (Faults.injected () > 0);
         (* the store itself is undamaged: injection happens on the read
            path, so an unscoped replay still verifies *)
         Faults.disable ();
         Snapshot.invalidate_templates ();
         match Verify.check fx.dx fx.snap fx.vmap fx.loaded with
         | Verify.Passed _ -> ()
         | _ -> Alcotest.fail "store left damaged by read-path injection"))
    ()

let test_unscoped_replay_immune () =
  clean (fun () ->
    let fx = Lazy.force fixture in
    Faults.enable (cfg ~seed:3 ~rate:1.0 ());
    (* no faults_key: loader/executor points must stay dormant *)
    match Verify.check fx.dx fx.snap fx.vmap fx.loaded with
    | Verify.Passed _ -> ()
    | _ -> Alcotest.fail "unscoped replay was damaged by armed registry")
    ()

(* --------------------- quarantine / retry policy --------------------- *)

let test_retry_distinguishes_transient () =
  clean (fun () ->
    let fx = Lazy.force fixture in
    (* Find a seed where a replay fault fires on attempt 0's scope key but
       not on attempt 1's (the verify_core site keying), then show check
       fails under the first key and passes under the second: exactly the
       transient case the retry-once policy forgives. *)
    let key_of attempt =
      Faults.combine (Faults.hash_string "some-binary") attempt
    in
    let rec find_seed seed =
      if seed > 500 then Alcotest.fail "no transient-demonstrating seed"
      else begin
        Faults.enable
          (cfg ~seed ~rate:0.5 ~only:[ Faults.Replay_collision ] ());
        let damaged k =
          match Verify.check ~faults_key:k fx.dx fx.snap fx.vmap fx.loaded with
          | Verify.Passed _ -> false
          | _ -> true
        in
        if damaged (key_of 0) && not (damaged (key_of 1)) then () else
          find_seed (seed + 1)
      end
    in
    find_seed 0)
    ()

let test_pipeline_quarantines_deterministic_miscompiles () =
  clean (fun () ->
    let app = Option.get (App.find "FFT") in
    let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
    let env = Pipeline.make_eval_env ~seed:21 app cap in
    let genome =
      List.map
        (fun (name, ps) -> { Repro_search.Genome.g_pass = name; g_params = ps })
        Lir.Pipelines.o2
    in
    (* Miscompile faults are keyed by genome, not replay attempt: a hit
       fails verification twice and must be quarantined, never measured.
       Some fault seeds pick only behaviour-preserving mutations (e.g.
       reorder-suspend), so search for a seed whose damage is observable
       under a fault-free check first. *)
    let rec miscompiled seed =
      if seed > 50 then Alcotest.fail "no observable miscompile seed found"
      else begin
        Faults.enable
          (cfg ~seed ~rate:1.0 ~only:[ Faults.Miscompile ] ());
        match Pipeline.compile_core env genome with
        | Error _ -> miscompiled (seed + 1)
        | Ok binary ->
          (match
             Verify.check env.Pipeline.dx
               env.Pipeline.capture.Pipeline.snapshot env.Pipeline.vmap
               (Lir.Blockexec.load binary)
           with
           | Verify.Passed _ -> miscompiled (seed + 1)
           | _ -> binary)
      end
    in
    let binary = miscompiled 0 in
    Pipeline.reset_quarantine ();
    Trace.enable ();
    Trace.reset ();
    (match Pipeline.verify_core env binary with
     | Pipeline.Core_quarantined _ -> ()
     | Pipeline.Core_measured _ ->
       Alcotest.fail "miscompiled binary was measured, not quarantined"
     | _ -> Alcotest.fail "unexpected verify_core outcome");
    (* both attempts replayed one load of the binary *)
    Alcotest.(check int) "one plan for both attempts" 1
      (Trace.counter_value "blockexec.plan_builds");
    Trace.reset ();
    Trace.disable ();
    let q = Pipeline.quarantine_summary () in
    Alcotest.(check bool) "quarantine log records the binary" true
      (List.length q = 1 && (List.hd q).Pipeline.q_count >= 1))
    ()

(* ------------------------- GA under faults --------------------------- *)

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

let test_ga_under_faults () =
  clean (fun () ->
    let app = Option.get (App.find "FFT") in
    let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
    Faults.enable { Faults.fseed = 42; frate = 0.10; fonly = None };
    Pipeline.reset_quarantine ();
    let run ~jobs =
      Pipeline.(
        run_session
          (start_search ~seed:21 ~cfg:tiny_cfg ~jobs ~cache:true app cap))
    in
    let o1 = run ~jobs:1 in
    let o4 = run ~jobs:4 in
    Alcotest.(check string) "-j4 byte-identical to -j1 under faults"
      (Pipeline.search_digest o1) (Pipeline.search_digest o4);
    Alcotest.(check bool) "faults actually fired" true (Faults.injected () > 0);
    (* the winner must be correct in a fault-free world *)
    Faults.disable ();
    (match o1.Pipeline.best_binary with
     | None -> Alcotest.fail "no verified winner under 10% fault rate"
     | Some b ->
       (match
          Verify.check o1.Pipeline.env.Pipeline.dx
            o1.Pipeline.env.Pipeline.capture.Pipeline.snapshot
            o1.Pipeline.env.Pipeline.vmap (Lir.Blockexec.load b)
        with
        | Verify.Passed _ -> ()
        | _ -> Alcotest.fail "winner does not verify without faults")))
    ()

(* ----------------- cross-input corpus closes the hole ----------------- *)

(* The guard-stripping soundness hole, pinned: o2 + unsafe-bce removes
   every bounds guard, yet *passes* single-input verification on FFT —
   the captured input never makes a guard fire, so the stripped binary is
   behaviourally identical on it.  A corpus whose second input is the
   non-power-of-two size (reference traps on it) rejects the same binary.
   This is the regression test for Pipeline.capture_corpus/verify_core:
   if it ever fails at K>=2, the hole has reopened. *)
let test_pinned_unsafe_genome_needs_corpus () =
  clean (fun () ->
    let app = Option.get (App.find "FFT") in
    let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 app) in
    let genome = Repro_core.Experiments.pinned_unsafe_genome () in
    let env1 = Pipeline.make_eval_env ~seed:21 app co.Pipeline.co_primary in
    let binary =
      match Pipeline.compile_core env1 genome with
      | Ok b -> b
      | Error _ -> Alcotest.fail "pinned genome failed to compile"
    in
    (* K=1: the stripped binary sails through single-input verification *)
    (match Pipeline.verify_core env1 binary with
     | Pipeline.Core_measured _ -> ()
     | _ -> Alcotest.fail "pinned genome no longer passes K=1 (test setup broken)");
    (* K>=2: the corpus's trap input rejects it *)
    let envk =
      Pipeline.make_eval_env ~seed:21 ~corpus:co.Pipeline.co_entries app
        co.Pipeline.co_primary
    in
    (match Pipeline.verify_core envk binary with
     | Pipeline.Core_wrong_output | Pipeline.Core_crashed _ -> ()
     | Pipeline.Core_measured _ ->
       Alcotest.fail "guard-stripping hole is OPEN: corpus passed the binary"
     | _ -> Alcotest.fail "unexpected corpus verdict"))
    ()

(* Corpus-verified search keeps the determinism contract: byte-identical
   across -j1 / -j4 / --no-cache, independent of corpus evaluation order. *)
let test_corpus_optimize_deterministic () =
  clean (fun () ->
    let app = Option.get (App.find "FFT") in
    let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 app) in
    let run ~jobs ~cache =
      Pipeline.(
        run_session
          (start_search ~seed:21 ~cfg:tiny_cfg ~jobs ~cache
             ~corpus:co.co_entries app co.co_primary))
    in
    let o1 = run ~jobs:1 ~cache:true in
    let o4 = run ~jobs:4 ~cache:true in
    let onc = run ~jobs:1 ~cache:false in
    let digest = Pipeline.search_digest in
    Alcotest.(check string) "-j4 byte-identical to -j1 with corpus"
      (digest o1) (digest o4);
    Alcotest.(check string) "--no-cache byte-identical with corpus"
      (digest o1) (digest onc);
    (* the winner verifies against the whole corpus, not just the primary *)
    match o1.Pipeline.best_binary with
    | None -> Alcotest.fail "no verified winner with corpus"
    | Some b ->
      let loaded = Lir.Blockexec.load b in
      List.iter
        (fun ce ->
           match
             Verify.check o1.Pipeline.env.Pipeline.dx ce.Pipeline.ce_snapshot
               ce.Pipeline.ce_reference loaded
           with
           | Verify.Passed _ -> ()
           | _ -> Alcotest.fail "winner fails a corpus entry")
        co.Pipeline.co_entries)
    ()

(* --------------------------------------------------------------------- *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [ ( "registry",
        [ Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "fire deterministic, rate-bounded" `Quick
            test_fire_deterministic_and_bounded;
          Alcotest.test_case "only= filter" `Quick test_only_filter;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "scoped sets and restores" `Quick
            test_scoped_restores;
          Alcotest.test_case "injection counting" `Quick test_injection_counts
        ] );
      ( "miscompile campaign",
        q prop_mutators_apply
        :: List.map (fun m -> q (prop_mutator_caught m)) Lir.Passes.mutators );
      ( "replay and executor faults",
        [ Alcotest.test_case "collision caught" `Quick
            (check_point_caught Faults.Replay_collision "rejected");
          Alcotest.test_case "truncation caught" `Quick
            (check_point_caught Faults.Replay_truncate "rejected");
          Alcotest.test_case "register corruption caught" `Quick
            (check_point_caught Faults.Replay_regs "rejected");
          Alcotest.test_case "executor crash caught" `Quick
            (check_point_caught Faults.Exec_crash "crashed");
          Alcotest.test_case "executor hang caught" `Quick
            (check_point_caught Faults.Exec_hang "hung");
          Alcotest.test_case "wrong return caught" `Quick
            (check_point_caught Faults.Exec_wrong_ret "wrong-output");
          Alcotest.test_case "store corruption caught" `Quick
            (check_store_point_caught Faults.Store_corrupt);
          Alcotest.test_case "store truncation caught" `Quick
            (check_store_point_caught Faults.Store_truncate);
          Alcotest.test_case "unscoped replay immune" `Quick
            test_unscoped_replay_immune ] );
      ( "quarantine",
        [ Alcotest.test_case "retry forgives transients" `Quick
            test_retry_distinguishes_transient;
          Alcotest.test_case "deterministic miscompiles quarantined" `Quick
            test_pipeline_quarantines_deterministic_miscompiles ] );
      ( "search under faults",
        [ Alcotest.test_case "GA at 10% fault rate" `Slow test_ga_under_faults
        ] );
      ( "cross-input corpus",
        [ Alcotest.test_case "pinned unsafe genome needs the corpus" `Quick
            test_pinned_unsafe_genome_needs_corpus;
          Alcotest.test_case "corpus search deterministic" `Slow
            test_corpus_optimize_deterministic ] ) ]
