(* Command-line interface to the reproduction: inspect apps, run them under
   different code versions, capture and replay hot regions, run the full
   replay-based iterative compilation, and regenerate the paper's
   tables/figures. *)

open Cmdliner
module App = Repro_apps.Registry
module B = Repro_dex.Bytecode
module Pipeline = Repro_core.Pipeline
module E = Repro_core.Experiments
module Ga = Repro_search.Ga

let app_conv =
  let parse s =
    match App.find s with
    | Some app -> Ok app
    | None ->
      Error (`Msg (Printf.sprintf "unknown app %S; try `repro list'" s))
  in
  Arg.conv (parse, fun fmt app -> Format.pp_print_string fmt app.App.name)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Deterministic seed.")

let full_arg =
  Arg.(value & flag
       & info [ "full" ]
         ~doc:"Use the paper-scale GA (11 generations x 50 genomes).")

(* The converter of every count flag: an integer >= 1, rejected with
   "expected [what]". *)
let pos_int what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg ("expected " ^ what))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt (pos_int "a positive number of worker domains") 1
       & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Evaluate each GA generation on $(docv) worker domains. \
               Results are independent of $(docv).")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
         ~doc:"Disable memoization of repeated genomes and identical \
               binaries (results do not change, only time).")

let no_stage_cache_arg =
  Arg.(value & flag
       & info [ "no-stage-cache" ]
         ~doc:"Disable the staged-compilation cache (memoized per-method \
               pass-prefix IR states keyed by canonical genome prefixes). \
               Results are byte-identical either way — cached prefixes \
               replay their recorded work charges, so even compile-timeout \
               classification is unchanged; only compile time differs.")

let with_stage_cache disabled f =
  if not disabled then f ()
  else begin
    let prev = Repro_lir.Stagecache.enabled () in
    Repro_lir.Stagecache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Repro_lir.Stagecache.set_enabled prev)
      f
  end

let engine_conv =
  let parse s =
    match Repro_lir.Blockexec.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "expected `ref' or `fused'")
  in
  Arg.conv
    (parse, fun fmt e ->
       Format.pp_print_string fmt (Repro_lir.Blockexec.engine_name e))

let engine_arg =
  Arg.(value & opt engine_conv Repro_lir.Blockexec.Fused
       & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Replay execution engine: $(b,fused) (block-fused, the \
               default) or $(b,ref) (per-instruction reference). The two \
               are bit-identical in results, cycle counts and search \
               histories; only wall-clock time differs.")

let with_engine engine f =
  let prev = Repro_lir.Blockexec.default_engine () in
  Repro_lir.Blockexec.set_default_engine engine;
  Fun.protect
    ~finally:(fun () -> Repro_lir.Blockexec.set_default_engine prev)
    f

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a pipeline trace and write it to $(docv) as Chrome \
               trace_event JSON (open in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
         ~doc:"Print a span/counter summary table when the command \
               finishes.")

(* Shared observability wrapper: enable tracing for the command's body,
   then export the trace file and/or summary — also on error exits. *)
let with_trace trace metrics f =
  if trace <> None || metrics then Repro_util.Trace.enable ();
  let finish () =
    (match trace with
     | Some file ->
       Repro_util.Trace.write_chrome file;
       Printf.printf "trace written to %s\n" file
     | None -> ());
    if metrics then Repro_util.Trace.print_summary ()
  in
  Fun.protect ~finally:finish f

(* The flags every search command shares ([optimize], [serve], [fleet],
   [experiment]), parsed once.  [--full] picks the paper-scale GA config;
   [wrap] runs the command's body under its tracing, engine and
   stage-cache settings. *)
type search_flags = {
  cfg : Ga.config;
  jobs : int;
  cache : bool;
  wrap : (unit -> unit) -> unit;
}

let search_flags =
  let make full jobs no_cache no_stage_cache engine trace metrics =
    { cfg = (if full then Ga.default_config else Ga.quick_config);
      jobs; cache = not no_cache;
      wrap =
        (fun f ->
           with_trace trace metrics @@ fun () ->
           with_engine engine @@ fun () -> with_stage_cache no_stage_cache f) }
  in
  Term.(const make $ full_arg $ jobs_arg $ no_cache_arg $ no_stage_cache_arg
        $ engine_arg $ trace_arg $ metrics_arg)

(* Cache/worker report for commands that run evaluation pools, plus the
   staged-compilation cache totals right beside it. *)
let print_pool_report () =
  Repro_search.Evalpool.print_stats (Repro_search.Evalpool.cumulative_stats ());
  Repro_lir.Stagecache.print_stats (Repro_lir.Stagecache.stats ())

(* ----------------------------- device store ------------------------- *)

module Storage = Repro_os.Storage
module Snapshot = Repro_capture.Snapshot

let mb bytes = float_of_int bytes /. 1048576.

(* Figure 11-style storage accounting: one row per blob (an app's
   program-specific capture or its boot-common page set), with the bytes
   its frames share with other blobs broken out — the cross-app sharing
   that keeps the paper's footprint at ~5 MB program-specific plus one
   copy of the boot-common pages. *)
let print_storage_table storage =
  Storage.flush storage;
  let rows = Storage.blob_accounting storage in
  Repro_util.Table.print
    ~aligns:[ Repro_util.Table.Left; Repro_util.Table.Right;
              Repro_util.Table.Right; Repro_util.Table.Right;
              Repro_util.Table.Right ]
    ~header:[ "Blob"; "Pages"; "MB"; "Shared MB"; "Exclusive MB" ]
    (List.map
       (fun r ->
          [ r.Storage.ba_label;
            string_of_int r.Storage.ba_pages;
            Repro_util.Table.fmt_f (mb r.Storage.ba_bytes);
            Repro_util.Table.fmt_f (mb r.Storage.ba_shared_bytes);
            Repro_util.Table.fmt_f (mb r.Storage.ba_exclusive_bytes) ])
       rows);
  let ac = Storage.accounting storage in
  Printf.printf
    "store: %d blobs, %d pages; logical %.2f MB stored as %.2f MB \
     (%.2f MB shared across blobs, dedup saves %.2f MB)\n"
    ac.Storage.ac_blobs ac.Storage.ac_pages
    (mb ac.Storage.ac_logical_bytes) (mb ac.Storage.ac_physical_bytes)
    (mb ac.Storage.ac_shared_bytes) (mb ac.Storage.ac_dedup_saved_bytes)

let store_arg =
  Arg.(value & flag
       & info [ "store" ]
         ~doc:"Attach a content-addressed device store for the run: \
               captured pages are spooled to it at idle priority (drained \
               between GA evaluation batches), replay templates \
               materialize from checksum-validated store reads, and a \
               storage accounting table is printed at the end. Results \
               are byte-identical with and without the store.")

(* Attach a fresh device store for the command's body; print the
   accounting table and detach afterwards — also on error exits. *)
let with_store enabled f =
  if not enabled then f ()
  else begin
    let storage = Storage.create () in
    Snapshot.set_store (Some storage);
    Fun.protect
      ~finally:(fun () ->
          print_storage_table storage;
          Snapshot.set_store None;
          Snapshot.invalidate_templates ())
      f
  end

(* --------------------------- fault injection ------------------------ *)

module Faults = Repro_util.Faults

let faults_conv =
  let parse s =
    match Faults.parse_spec s with
    | Ok cfg -> Ok cfg
    | Error msg -> Error (`Msg ("--faults: " ^ msg))
  in
  Arg.conv (parse, fun fmt cfg -> Format.pp_print_string fmt (Faults.spec_string cfg))

let faults_arg =
  Arg.(value & opt (some faults_conv) None
       & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Arm deterministic fault injection for the run: \
               $(docv) is seed=N,rate=FLOAT[,only=p1+p2]. Points: \
               miscompile, replay-collision, replay-truncate, replay-regs, \
               exec-crash, exec-hang, exec-wrong-ret, store-corrupt, \
               store-truncate (the store-* points need --store and damage \
               the snapshot blob on its read path, caught by per-page \
               checksums). Candidate binaries \
               that persistently fail verification are quarantined (worst \
               fitness) and reported in a summary table; results remain \
               byte-identical for every -j/--no-cache combination.")

let print_fault_report cfg =
  Printf.printf "fault injection (%s): %d faults injected\n"
    (Faults.spec_string cfg) (Faults.injected ());
  List.iter
    (fun (p, n) ->
       if n > 0 then Printf.printf "  %-18s %d\n" (Faults.point_name p) n)
    (Faults.injected_by_point ());
  match Pipeline.quarantine_summary () with
  | [] ->
    print_endline
      "quarantine: empty (no binary persistently failed verification)"
  | entries ->
    Printf.printf "quarantine: %d binary(ies) discarded as deterministic \
                   miscompiles\n" (List.length entries);
    Repro_util.Table.print
      ~aligns:[ Repro_util.Table.Left; Repro_util.Table.Left;
                Repro_util.Table.Right ]
      ~header:[ "Binary"; "Verdicts (first; retry)"; "Hits" ]
      (List.map
         (fun e ->
            let key =
              if String.length e.Pipeline.q_binary > 12 then
                String.sub e.Pipeline.q_binary 0 12 ^ "..."
              else e.Pipeline.q_binary
            in
            [ key; e.Pipeline.q_reason; string_of_int e.Pipeline.q_count ])
         entries)

(* Arm the registry for the command's body; report and disarm afterwards —
   also on error exits, so a crashed search still prints its quarantine. *)
let with_faults faults f =
  match faults with
  | None -> f ()
  | Some cfg ->
    Faults.enable cfg;
    Pipeline.reset_quarantine ();
    Fun.protect
      ~finally:(fun () ->
          print_fault_report cfg;
          Faults.disable ())
      f

(* ------------------------------ list ------------------------------- *)

let list_cmd =
  let run () = E.print_table1 () in
  Cmd.v (Cmd.info "list" ~doc:"List the 21 evaluation applications (Table 1).")
    Term.(const run $ const ())

(* ------------------------------ passes ----------------------------- *)

let passes_cmd =
  let run () =
    Repro_util.Table.print
      ~aligns:[ Repro_util.Table.Left; Repro_util.Table.Left;
                Repro_util.Table.Left; Repro_util.Table.Left ]
      ~header:[ "Pass"; "Safe"; "Parameters"; "Description" ]
      (List.map
         (fun p ->
            [ p.Repro_lir.Passes.name;
              (if p.Repro_lir.Passes.safe then "yes" else "NO");
              String.concat ", "
                (List.map
                   (fun pr ->
                      Printf.sprintf "%s:%d..%d" pr.Repro_lir.Passes.pname
                        pr.Repro_lir.Passes.pmin pr.Repro_lir.Passes.pmax)
                   p.Repro_lir.Passes.params);
              p.Repro_lir.Passes.descr ])
         Repro_lir.Passes.catalog)
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the LLVM-style optimization pass catalog (the GA's space).")
    Term.(const run $ const ())

(* ------------------------------- run ------------------------------- *)

let version_arg =
  Arg.(value & opt (enum [ ("android", `Android); ("interp", `Interp);
                           ("o0", `O0); ("o3", `O3) ]) `Android
       & info [ "code" ] ~doc:"Code version: android, interp, o0 or o3.")

let run_cmd =
  let run app version seed trace metrics =
    with_trace trace metrics @@ fun () ->
    let dx = App.dexfile app in
    let mids =
      Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)
    in
    let online =
      match version with
      | `Interp ->
        let ctx = App.build_ctx ~seed app in
        Repro_vm.Interp.install ctx;
        let ret = Repro_vm.Interp.run_main ctx in
        { Pipeline.ctx; profile = Repro_profiler.Profile.of_ctx ctx;
          cycles = ctx.Repro_vm.Exec_ctx.cycles; ret }
      | `Android -> Pipeline.online_run ~seed app
      | `O0 ->
        Pipeline.online_run ~seed
          ~binary:(Repro_lir.Compile.(llvm_binary (frontend dx))
                     Repro_lir.Pipelines.o0 mids)
          app
      | `O3 ->
        Pipeline.online_run ~seed
          ~binary:(Repro_lir.Compile.(llvm_binary (frontend dx))
                     Repro_lir.Pipelines.o3 mids)
          app
    in
    Printf.printf "%s: %d cycles (%.2f simulated ms), result=%s, gc runs=%d\n"
      app.App.name online.Pipeline.cycles
      (Repro_vm.Exec_ctx.elapsed_ms online.Pipeline.ctx)
      (match online.Pipeline.ret with
       | Some v -> Repro_vm.Value.to_string v
       | None -> "()")
      online.Pipeline.ctx.Repro_vm.Exec_ctx.gc_count;
    let io = Buffer.contents online.Pipeline.ctx.Repro_vm.Exec_ctx.io in
    Printf.printf "io: %d bytes%s\n" (String.length io)
      (if String.length io < 200 then ":\n" ^ io else " (truncated)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an application online under a code version.")
    Term.(const run $ app_arg $ version_arg $ seed_arg $ trace_arg
          $ metrics_arg)

(* ------------------------------- hot ------------------------------- *)

let hot_cmd =
  let run app seed trace metrics =
    with_trace trace metrics @@ fun () ->
    let online = Pipeline.online_run ~seed app in
    let dx = App.dexfile app in
    match Pipeline.hot_region_of app online with
    | None -> print_endline "no replayable hot region found"
    | Some hot ->
      let region = Pipeline.region_methods app hot in
      Printf.printf "hot region: %s\n"
        (B.method_full_name dx.B.dx_methods.(hot));
      Printf.printf "compilable region (%d methods): %s\n" (List.length region)
        (String.concat ", "
           (List.map
              (fun mid -> B.method_full_name dx.B.dx_methods.(mid))
              region));
      print_endline "code breakdown (Figure 8 for this app):";
      List.iter
        (fun (c, f) ->
           Printf.printf "  %-14s %s\n"
             (Repro_profiler.Breakdown.category_name c)
             (Repro_util.Table.fmt_pct f))
        (Repro_profiler.Breakdown.of_profile dx ~region online.Pipeline.profile)
  in
  Cmd.v
    (Cmd.info "hot"
       ~doc:"Profile an app and show its hot region (Algorithm 1).")
    Term.(const run $ app_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ----------------------------- capture ----------------------------- *)

let capture_cmd =
  let run app seed trace metrics =
    with_trace trace metrics @@ fun () ->
    match Pipeline.capture_once ~seed app with
    | None -> print_endline "no replayable hot region: nothing to capture"
    | Some cap ->
      let o = cap.Pipeline.overhead in
      let snap = cap.Pipeline.snapshot in
      Printf.printf "captured %s (method %s) with args [%s]\n"
        app.App.name
        (B.method_full_name
           (App.dexfile app).B.dx_methods.(cap.Pipeline.hot_mid))
        (String.concat "; "
           (List.map Repro_vm.Value.to_string
              snap.Repro_capture.Snapshot.snap_args));
      Printf.printf
        "overhead: fork %.1f ms, preparation %.1f ms, faults+CoW %.1f ms \
         (total %.1f ms; %d faults, %d CoW, %d map entries, %d protected)\n"
        o.Repro_capture.Capture.fork_ms o.Repro_capture.Capture.preparation_ms
        o.Repro_capture.Capture.fault_cow_ms
        (Repro_capture.Capture.total_ms o) o.Repro_capture.Capture.n_faults
        o.Repro_capture.Capture.n_cow o.Repro_capture.Capture.n_map_entries
        o.Repro_capture.Capture.n_protected;
      Printf.printf
        "storage: %.2f MB program-specific, %.2f MB boot-common, %d code files logged\n"
        (float_of_int (Repro_capture.Snapshot.program_bytes snap) /. 1048576.)
        (float_of_int (Repro_capture.Snapshot.common_bytes snap) /. 1048576.)
        (List.length snap.Repro_capture.Snapshot.snap_code_files)
  in
  Cmd.v
    (Cmd.info "capture"
       ~doc:"Capture the app's hot region during an online run (Figure 4).")
    Term.(const run $ app_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ----------------------------- optimize ---------------------------- *)

let corpus_arg =
  Arg.(value & opt (pos_int "a corpus size >= 1") 1
       & info [ "corpus" ] ~docv:"K"
         ~doc:"Capture a $(docv)-input corpus and verify every candidate \
               against all of it (cross-input verification). $(docv)=1 is \
               the classic single-capture pipeline; larger $(docv) adds \
               adversarial inputs that retire guard-stripping binaries. \
               Fitness always comes from the primary capture.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Crash-safe search: journal every evaluated batch to $(docv) \
               (checksummed store pages, written atomically after each \
               batch). Re-running the same command after a kill resumes \
               from the journal and produces a search history byte-identical \
               to an uninterrupted run, for every -j/--no-cache combination. \
               A damaged or mismatched checkpoint is quarantined and the \
               search restarts cold with a warning.")

let ckpt_abort_arg =
  Arg.(value & opt (some int) None
       & info [ "ckpt-abort" ] ~docv:"N"
         ~doc:"Testing aid: simulate a crash by aborting the process (exit \
               code 3) after $(docv) live evaluation batches, after their \
               checkpoints are on disk. Use with $(b,--checkpoint) to \
               exercise kill/resume.")

let print_session_warnings warnings =
  List.iter (fun w -> Printf.printf "warning: %s\n" w) warnings

let optimize_cmd =
  let run app seed fl faults store corpus_k checkpoint ckpt_abort =
    fl.wrap @@ fun () ->
    with_store store @@ fun () ->
    with_faults faults @@ fun () ->
    match
      Pipeline.start ~jobs:fl.jobs ~cache:fl.cache ?abort_after:ckpt_abort
        (Pipeline.request ~seed ~cfg:fl.cfg ~corpus_k ?checkpoint app)
    with
    | None -> print_endline "no replayable hot region: nothing to optimize"
    | Some (co, session) ->
      if co.Pipeline.co_entries <> [] then
        Printf.printf "corpus: %d secondary capture(s): %s\n"
          (List.length co.Pipeline.co_entries)
          (String.concat ", "
             (List.map
                (fun ce -> ce.Pipeline.ce_input.App.in_label)
                co.Pipeline.co_entries));
      print_session_warnings (Pipeline.session_warnings session);
      let opt =
        try Pipeline.run_session session
        with Repro_core.Checkpoint.Injected_abort ->
          Printf.printf
            "aborted after %d live batch(es) (--ckpt-abort); checkpoint %s \
             is resumable\n"
            (Pipeline.session_live_batches session)
            (Option.value checkpoint ~default:"(none)");
          Stdlib.exit 3
      in
      if Pipeline.session_replayed_batches session > 0 then
        Printf.printf "resumed from checkpoint: %d batch(es) replayed, %d \
                       evaluated live\n"
          (Pipeline.session_replayed_batches session)
          (Pipeline.session_live_batches session);
      Printf.printf "replay baselines: Android %.3f ms, LLVM -O3 %.3f ms\n"
        opt.Pipeline.env.Pipeline.android_region_ms
        opt.Pipeline.env.Pipeline.o3_region_ms;
      Printf.printf "GA: %d evaluations%s\n" opt.Pipeline.ga.Ga.evaluations
        (match opt.Pipeline.ga.Ga.halted_early with
         | Some r -> " (halted early: " ^ r ^ ")"
         | None -> "");
      (match opt.Pipeline.best_genome, opt.Pipeline.ga.Ga.best with
       | Some g, Some (_, fit) ->
         Printf.printf "best replay fitness: %.3f ms\nbest genome: %s\n" fit
           (Repro_search.Genome.to_string g)
       | _ -> print_endline "no verified binary found");
      let sp = Pipeline.measure_speedups app opt in
      Printf.printf
        "whole-program speedup over Android: LLVM -O3 %.2fx, LLVM GA %.2fx\n"
        sp.Pipeline.o3_speedup sp.Pipeline.ga_speedup;
      Printf.printf "search digest: %s\n" (Pipeline.search_digest opt);
      print_pool_report ()
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Run the full replay-based iterative compilation (Figure 6).")
    Term.(const run $ app_arg $ seed_arg $ search_flags $ faults_arg
          $ store_arg $ corpus_arg $ checkpoint_arg $ ckpt_abort_arg)

(* ------------------------------ serve ------------------------------ *)

module Serve = Repro_core.Serve

let serve_apps_arg =
  Arg.(non_empty & pos_all app_conv [] & info [] ~docv:"APP")

let max_active_arg =
  Arg.(value & opt (some (pos_int "a positive number of slots")) None
       & info [ "max-active" ] ~docv:"N"
         ~doc:"Admission control: at most $(docv) searches run \
               concurrently; further submissions queue (bounded) and then \
               bounce. Defaults to the number of requested apps.")

let queue_arg =
  Arg.(value & opt int 16
       & info [ "queue" ] ~docv:"N"
         ~doc:"Backpressure bound: at most $(docv) submissions wait behind \
               the active set before new ones are rejected.")

let ckpt_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR"
         ~doc:"Give every tenant a crash-safe journal at \
               $(docv)/<app>.ckpt. Re-running the same serve command after \
               a kill resumes each search from its journal with a \
               byte-identical history. The directory must exist.")

let serve_cmd =
  let run apps seed fl max_active queue_capacity ckpt_dir ckpt_abort =
    fl.wrap @@ fun () ->
    let max_active = Option.value max_active ~default:(List.length apps) in
    let t =
      Serve.create ~jobs:fl.jobs ~cache:fl.cache ~queue_capacity
        ?abort_after:ckpt_abort ~max_active ()
    in
    List.iter
      (fun app ->
         let checkpoint =
           Option.map
             (fun dir -> Filename.concat dir (app.App.name ^ ".ckpt"))
             ckpt_dir
         in
         let r = Serve.request ~seed ~cfg:fl.cfg ?checkpoint app in
         match Serve.submit t r with
         | `Admitted -> Printf.printf "%s: admitted\n" app.App.name
         | `Queued n -> Printf.printf "%s: queued (position %d)\n" app.App.name n
         | `Rejected -> Printf.printf "%s: rejected (queue full)\n" app.App.name)
      apps;
    (match Serve.drive t with
     | () -> ()
     | exception Repro_core.Checkpoint.Injected_abort ->
       List.iter
         (fun r ->
            Printf.printf "%s: interrupted (%d live batch(es) journaled%s)\n"
              r.Serve.rp_app r.Serve.rp_live_batches
              (match r.Serve.rp_checkpoint with
               | Some f -> " in " ^ f
               | None -> ", no checkpoint"))
         (Serve.reports t);
       Printf.printf
         "serve aborted after %d live batch(es) (--ckpt-abort); re-run the \
          same command to resume\n"
         (Serve.stats t).Serve.st_live_batches;
       Stdlib.exit 3);
    List.iter
      (fun r ->
         print_session_warnings r.Serve.rp_warnings;
         match r.Serve.rp_outcome with
         | `Finished ->
           Printf.printf
             "%s: best %s ms, %d evaluations, %d live + %d replayed \
              batch(es)%s\n  digest %s\n"
             r.Serve.rp_app
             (match r.Serve.rp_best_ms with
              | Some ms -> Printf.sprintf "%.3f" ms
              | None -> "-")
             r.Serve.rp_evaluations r.Serve.rp_live_batches
             r.Serve.rp_replayed_batches
             (if r.Serve.rp_quarantined > 0 then
                Printf.sprintf ", %d quarantined" r.Serve.rp_quarantined
              else "")
             (Option.value r.Serve.rp_digest ~default:"-")
         | `Failed why -> Printf.printf "%s: failed (%s)\n" r.Serve.rp_app why
         | `Unstarted -> Printf.printf "%s: not started\n" r.Serve.rp_app)
      (Serve.reports t);
    let s = Serve.stats t in
    Printf.printf
      "scheduler: %d rounds (%d concurrent), peak %d active, %d live \
       batch(es), fairness spread %.3f, %d rejected\n"
      s.Serve.st_rounds s.Serve.st_concurrent_rounds s.Serve.st_peak_active
      s.Serve.st_live_batches s.Serve.st_fairness_spread s.Serve.st_rejected;
    print_pool_report ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the pipeline as a service: multiplex several apps' \
             searches over one shared worker pool with round-robin \
             fairness, admission control and per-tenant crash-safe \
             checkpoints.")
    Term.(const run $ serve_apps_arg $ seed_arg $ search_flags
          $ max_active_arg $ queue_arg $ ckpt_dir_arg $ ckpt_abort_arg)

(* ------------------------------ fleet ------------------------------ *)

module Fleet = Repro_fleet.Fleet
module Bank = Repro_fleet.Bank
module Device = Repro_fleet.Device

let devices_arg =
  Arg.(value & opt (pos_int "a fleet size >= 1") 100
       & info [ "devices" ] ~docv:"N"
         ~doc:"Simulate a fleet of $(docv) devices. Profiles (installed \
               apps, DVFS noise multiplier, availability schedule) are \
               derived deterministically from the seed.")

let gens_arg =
  Arg.(value & opt (some (pos_int "a generation count >= 1")) None
       & info [ "gens" ] ~docv:"G"
         ~doc:"GA generations (default: the quick config's; with --full, \
               the paper-scale config's).")

let bank_arg =
  Arg.(value & opt (some string) None
       & info [ "bank" ] ~docv:"FILE"
         ~doc:"Persistent cross-device genome bank. Loaded before the \
               search (warm-starting the GA from previous winners for \
               this app, matching device-feature bucket first) and saved \
               back with this search's winner. A corrupted bank file is \
               quarantined and the search starts cold.")

let sched_seed_arg =
  Arg.(value & opt int 0
       & info [ "sched-seed" ] ~docv:"S"
         ~doc:"Shuffle the order in which assigned devices are processed. \
               Results are byte-identical for every $(docv) — the \
               determinism contract the fleet smoke test asserts.")

let fleet_cmd =
  let run app seed fl devices gens bank_file sched_seed corpus_k =
    fl.wrap @@ fun () ->
    let ga_cfg =
      match gens with
      | None -> fl.cfg
      | Some g -> { fl.cfg with Ga.generations = g }
    in
    let cfg = { Fleet.default_config with Fleet.ga = ga_cfg } in
    match Pipeline.capture_corpus ~seed ~k:corpus_k app with
    | None -> print_endline "no replayable hot region: nothing to optimize"
    | Some co ->
      let bank =
        match bank_file with
        | None -> None
        | Some file ->
          let bank, warnings = Bank.load file in
          List.iter (fun w -> Printf.printf "bank warning: %s\n" w) warnings;
          Printf.printf "bank: %d entries loaded from %s\n" (Bank.size bank)
            file;
          Some bank
      in
      let r =
        Fleet.run ~jobs:fl.jobs ~cache:fl.cache ~sched_seed ?bank ~cfg ~seed
          ~devices co
      in
      let opt = r.Fleet.opt in
      Printf.printf "fleet: %d devices (%d with %s installed)\n" r.Fleet.devices
        r.Fleet.capable app.App.name;
      Printf.printf "reference %s\n" (Device.describe (Device.make ~fleet_seed:seed 0));
      let avail = Array.of_list (List.map float_of_int r.Fleet.avail_trace) in
      Printf.printf
        "availability: %.0f-%.0f capable devices online per round \
         (%d rounds, %d rescued by whole-fleet fallback)\n"
        (Array.fold_left min infinity avail)
        (Array.fold_left max neg_infinity avail)
        r.Fleet.ticks r.Fleet.empty_rounds;
      Printf.printf "replay baselines: Android %.3f ms, LLVM -O3 %.3f ms\n"
        opt.Pipeline.env.Pipeline.android_region_ms
        opt.Pipeline.env.Pipeline.o3_region_ms;
      Printf.printf "GA: %d evaluations, %d device samples%s\n"
        opt.Pipeline.ga.Ga.evaluations r.Fleet.fleet_samples
        (match opt.Pipeline.ga.Ga.halted_early with
         | Some reason -> " (halted early: " ^ reason ^ ")"
         | None -> "");
      if r.Fleet.bank_seeds > 0 then
        Printf.printf "bank warm start: %d seed genome(s)\n" r.Fleet.bank_seeds;
      (match opt.Pipeline.best_genome, opt.Pipeline.best_fitness with
       | Some g, Some fit ->
         Printf.printf "best pooled fitness: %.3f ms\nbest genome: %s\n" fit
           (Repro_search.Genome.to_string g)
       | _ -> print_endline "no verified binary found");
      (match r.Fleet.winner_ms with
       | Some ms -> Printf.printf "winner on reference device: %.3f ms\n" ms
       | None -> ());
      Printf.printf "history digest: %s\n" r.Fleet.history_digest;
      (match (bank, bank_file) with
       | Some bank, Some file ->
         Bank.save bank file;
         Printf.printf "bank: %d entries saved to %s\n" (Bank.size bank) file
       | _ -> ());
      print_pool_report ()
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Crowdsourced iterative compilation: shard one app's GA \
             across a simulated device fleet (the paper's deployment \
             model). Compilation and verification run once per genome on \
             the shared pool; measurements are contributed by the devices \
             online each round and pooled in device-id order, so the \
             search history is byte-identical across -j, --sched-seed \
             and availability interleaving.")
    Term.(const run $ app_arg $ seed_arg $ search_flags $ devices_arg
          $ gens_arg $ bank_arg $ sched_seed_arg $ corpus_arg)

(* ----------------------------- storage ----------------------------- *)

let storage_cmd =
  let apps_arg =
    Arg.(value & pos_all app_conv []
         & info [] ~docv:"APP"
           ~doc:"Applications to capture into one shared store \
                 (default: FFT LU).")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
           ~doc:"Serialize the store to $(docv) (deterministic byte \
                 layout), then reload it and report any degradation \
                 warnings — an end-to-end check of the on-disk format.")
  in
  let run apps seed save trace metrics =
    with_trace trace metrics @@ fun () ->
    let apps =
      match apps with
      | [] ->
        List.filter_map App.find [ "FFT"; "LU" ]
      | apps -> apps
    in
    let storage = Storage.create () in
    Snapshot.set_store (Some storage);
    Fun.protect
      ~finally:(fun () ->
          Snapshot.set_store None;
          Snapshot.invalidate_templates ())
      (fun () ->
         List.iter
           (fun app ->
              match Pipeline.capture_once ~seed app with
              | None ->
                Printf.printf "%s: no replayable hot region, skipped\n"
                  app.App.name
              | Some cap ->
                let snap = cap.Pipeline.snapshot in
                Printf.printf
                  "%s: captured %d program-specific + %d boot-common pages \
                   (%d queued for idle spooling)\n"
                  app.App.name
                  (List.length snap.Repro_capture.Snapshot.snap_pages)
                  (List.length snap.Repro_capture.Snapshot.snap_common)
                  (Storage.pending storage))
           apps;
         print_endline
           "\nFigure 11-style storage accounting (content-addressed, \
            deduplicated):";
         print_storage_table storage;
         match save with
         | None -> ()
         | Some file ->
           Storage.save storage file;
           let size =
             In_channel.with_open_bin file In_channel.length
             |> Int64.to_int
           in
           Printf.printf "saved to %s (%.2f MB on disk)\n" file (mb size);
           let reloaded, warnings = Storage.load file in
           List.iter (fun w -> Printf.printf "  load warning: %s\n" w) warnings;
           Printf.printf "reload: %d blobs, %.2f MB physical, %d warnings\n"
             (List.length (Storage.labels reloaded))
             (mb (Storage.physical_bytes reloaded))
             (List.length warnings))
  in
  Cmd.v
    (Cmd.info "storage"
       ~doc:"Capture several apps into one content-addressed device store \
             and print the Figure 11-style accounting table (shared vs \
             program-specific bytes).")
    Term.(const run $ apps_arg $ seed_arg $ save_arg $ trace_arg
          $ metrics_arg)

(* ---------------------------- experiment --------------------------- *)

let experiment_cmd =
  let names =
    [ "table1"; "fig1"; "fig2"; "fig3"; "fig7"; "fig8"; "fig9"; "fig10";
      "fig11"; "survival" ]
  in
  let names_arg =
    Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) []
         & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiments to run, in the order given. With none, every \
                 experiment runs: table1, fig1-3, fig7-11 and survival.")
  in
  let eager_arg =
    Arg.(value & flag
         & info [ "eager" ]
           ~doc:"Figure 10 ablation: CERE-style eager page copying.")
  in
  let run picked fl eager faults =
    fl.wrap @@ fun () ->
    with_faults faults @@ fun () ->
    let jobs = fl.jobs and cache = fl.cache in
    (* Figures 7 and 9 read the same searches: one per app, run once *)
    let studies = lazy (E.studies ~cfg:fl.cfg ~jobs ~cache ()) in
    let quick_note () =
      if fl.cfg = Ga.quick_config then
        print_endline
          "(quick GA config: 6 generations x 14 genomes; pass --full for the \
           paper's 11 x 50)"
    in
    List.iter
      (fun name ->
         Printf.printf "\n============ %s ============\n%!" name;
         match name with
         | "table1" -> E.print_table1 ()
         | "fig1" -> E.print_fig1 (E.fig1 ~jobs ~cache ())
         | "fig2" -> E.print_fig2 (E.fig2 ~jobs ~cache ())
         | "fig3" -> E.print_fig3 (E.fig3 ())
         | "fig7" -> quick_note (); E.print_fig7 (E.fig7 (Lazy.force studies))
         | "fig8" -> E.print_fig8 (E.fig8 ())
         | "fig9" -> quick_note (); E.print_fig9 (E.fig9 (Lazy.force studies))
         | "fig10" -> E.print_fig10 (E.fig10 ~eager ())
         | "fig11" -> E.print_fig11 (E.fig11 ())
         | "survival" -> E.print_survival (E.survival ())
         | _ -> assert false)
      (if picked = [] then names else picked);
    print_newline ();
    print_pool_report ()
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ names_arg $ search_flags $ eager_arg $ faults_arg)

(* ----------------------------- disasm ------------------------------ *)

let disasm_cmd =
  let method_arg =
    Arg.(value & opt (some string) None
         & info [ "method" ] ~docv:"Class.method"
           ~doc:"Limit output to one method.")
  in
  let run app meth =
    let dx = App.dexfile app in
    match meth with
    | None -> print_string (Repro_dex.Disasm.dexfile dx)
    | Some qualified ->
      (match String.index_opt qualified '.' with
       | None -> prerr_endline "expected Class.method"
       | Some i ->
         let cls = String.sub qualified 0 i in
         let name =
           String.sub qualified (i + 1) (String.length qualified - i - 1)
         in
         (match B.find_method dx cls name with
          | Some m -> print_string (Repro_dex.Disasm.method_ dx m)
          | None -> prerr_endline "no such method"))
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble an app's bytecode.")
    Term.(const run $ app_arg $ method_arg)

let () =
  let doc =
    "Replay-based offline iterative compilation for interactive \
     applications (PLDI 2021 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "repro" ~doc)
          [ list_cmd; passes_cmd; run_cmd; hot_cmd; capture_cmd; optimize_cmd;
            serve_cmd;
            fleet_cmd; storage_cmd; experiment_cmd; disasm_cmd ]))
