(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus a bechamel
   micro-benchmark suite over the experiment kernels.

   Usage:
     bench/main.exe                 run every experiment (quick GA config)
     bench/main.exe table1 fig10    run selected experiments
     bench/main.exe --full ...      paper-scale GA (11 generations x 50)
     bench/main.exe fig9 -j 4       evaluate GA generations on 4 domains
     bench/main.exe --no-cache ...  disable genome/binary memoization
     bench/main.exe fig10 --eager   CERE-style capture ablation
     bench/main.exe bechamel        micro-benchmarks via bechamel
     bench/main.exe replay          CoW replay setup/verify microbenchmark
                                    (writes BENCH_replay.json)
     bench/main.exe storage         content-addressed store microbenchmark:
                                    spool/read throughput, FFT+LU dedup
                                    ratio, save/load (BENCH_storage.json)
     bench/main.exe corpus          unsafe-pass survival vs corpus size K,
                                    plus corpus capture/verify overhead
                                    (writes BENCH_corpus.json)
     bench/main.exe exec            block-fused vs reference replay engine:
                                    contract check, fusion counters, speedup
                                    (writes BENCH_exec.json)
     bench/main.exe compile         staged-compilation cache microbenchmark:
                                    cold vs cached generation compile time
                                    on FFT, prefix-hit rate
                                    (writes BENCH_compile.json)
     bench/main.exe fleet           device-fleet benchmark: evals/sec vs
                                    fleet size and -j, convergence vs the
                                    single-device GA, genome-bank warm
                                    starts (writes BENCH_fleet.json)
     bench/main.exe serve           service-mode benchmark: N apps over one
                                    shared pool, throughput vs admission
                                    width, kill/resume overhead
                                    (writes BENCH_serve.json)
     bench/main.exe --no-stage-cache  disable the pass-prefix stage cache
                                    (results identical, only compile time)
     bench/main.exe --engine E      replay engine for the experiments:
                                    fused (default) or ref
     bench/main.exe --trace FILE    record a Chrome trace_event JSON trace
     bench/main.exe --metrics       print a span/counter summary table
     bench/main.exe --faults SPEC   arm deterministic fault injection
                                    (seed=N,rate=F[,only=p1+p2]); prints the
                                    injection totals and quarantine report *)

module E = Repro_core.Experiments
module Ga = Repro_search.Ga
module Clock = Repro_util.Clock

let run_fig3 () =
  (* the full 10^4-evaluation sweep is cheap: measurements are synthesized
     on top of the five real per-size executions *)
  E.print_fig3 (E.fig3 ())

let quick_apps_note cfg =
  if cfg == Ga.quick_config then
    print_endline
      "(quick GA config: 6 generations x 14 genomes; pass --full for the \
       paper's 11 x 50)"

let run_all ~cfg ~eager ~jobs ~cache names =
  let sep title =
    Printf.printf "\n============ %s ============\n%!" title
  in
  let want name = names = [] || List.mem name names in
  if want "table1" then begin
    sep "Table 1";
    E.print_table1 ()
  end;
  if want "fig1" then begin
    sep "Figure 1";
    E.print_fig1 (E.fig1 ~jobs ~cache ())
  end;
  if want "fig2" then begin
    sep "Figure 2";
    E.print_fig2 (E.fig2 ~jobs ~cache ())
  end;
  if want "fig3" then begin
    sep "Figure 3";
    run_fig3 ()
  end;
  if want "fig7" then begin
    sep "Figure 7";
    quick_apps_note cfg;
    E.print_fig7 (E.fig7 ~cfg ~jobs ~cache ())
  end;
  if want "fig8" then begin
    sep "Figure 8";
    E.print_fig8 (E.fig8 ())
  end;
  if want "fig9" then begin
    sep "Figure 9";
    quick_apps_note cfg;
    E.print_fig9 (E.fig9 ~cfg ~jobs ~cache ())
  end;
  if want "fig10" then begin
    sep (if eager then "Figure 10 (eager/CERE ablation)" else "Figure 10");
    E.print_fig10 (E.fig10 ~eager ())
  end;
  if want "fig11" then begin
    sep "Figure 11";
    E.print_fig11 (E.fig11 ())
  end

(* ------------------------- bechamel suite -------------------------- *)

let bechamel_suite () =
  let open Bechamel in
  let app name = Option.get (Repro_apps.Registry.find name) in
  let fft = app "FFT" in
  let dx = Repro_apps.Registry.dexfile fft in
  let mids =
    Array.to_list
      (Array.map (fun m -> m.Repro_dex.Bytecode.cm_id)
         dx.Repro_dex.Bytecode.dx_methods)
  in
  let capture = Option.get (Repro_core.Pipeline.capture_once fft) in
  let env = Repro_core.Pipeline.make_eval_env fft capture in
  let rng = Repro_util.Rng.create 5 in
  let tests =
    [ (* Table 1 / app substrate: one full interpreted online run *)
      Test.make ~name:"table1:online-run-interpreted"
        (Staged.stage (fun () ->
             let ctx = Repro_apps.Registry.build_ctx fft in
             Repro_vm.Interp.install ctx;
             ignore (Repro_vm.Interp.run_main ctx)));
      (* Figures 1/2 kernel: compile one random sequence *)
      Test.make ~name:"fig1:compile-random-sequence"
        (Staged.stage (fun () ->
             let g = Repro_search.Genome.random rng in
             match
               Repro_lir.Compile.llvm_binary dx
                 (Repro_search.Genome.to_spec g) env.Repro_core.Pipeline.region
             with
             | (_ : Repro_lir.Binary.t) -> ()
             | exception Repro_lir.Compile.Compile_error _ -> ()
             | exception Repro_lir.Compile.Compile_timeout -> ()));
      (* Figure 3 kernel: one noisy online evaluation draw *)
      Test.make ~name:"fig3:online-noise-draw"
        (Staged.stage (fun () ->
             ignore (Repro_util.Rng.lognormal rng ~mu:0.0 ~sigma:0.1)));
      (* Figure 7 kernel: one verified replay of the Android region code *)
      Test.make ~name:"fig7:verified-replay"
        (Staged.stage (fun () ->
             let b = Repro_lir.Compile.android_binary dx mids in
             ignore
               (Repro_capture.Verify.check dx
                  capture.Repro_core.Pipeline.snapshot
                  env.Repro_core.Pipeline.vmap b)));
      (* Figure 8 kernel: classify a profile *)
      Test.make ~name:"fig8:breakdown"
        (Staged.stage (fun () ->
             let online = Repro_core.Pipeline.online_run fft in
             ignore
               (Repro_profiler.Breakdown.of_profile dx
                  ~region:env.Repro_core.Pipeline.region
                  online.Repro_core.Pipeline.profile)));
      (* Figure 9 kernel: one GA genome evaluation *)
      Test.make ~name:"fig9:genome-evaluation"
        (Staged.stage (fun () ->
             ignore
               (Repro_core.Pipeline.evaluate_genome env
                  (Repro_search.Genome.random rng))));
      (* Figure 10 kernel: one capture *)
      Test.make ~name:"fig10:capture"
        (Staged.stage (fun () ->
             ignore (Repro_core.Pipeline.capture_once fft)));
      (* Figure 11 kernel: snapshot accounting *)
      Test.make ~name:"fig11:snapshot-size"
        (Staged.stage (fun () ->
             ignore
               (Repro_capture.Snapshot.program_bytes
                  capture.Repro_core.Pipeline.snapshot)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"experiments" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
       match Analyze.OLS.estimates r with
       | Some (e :: _) -> Printf.printf "bechamel %-42s %12.0f ns/run\n%!" name e
       | Some [] | None -> Printf.printf "bechamel %-42s (no estimate)\n%!" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* one warm-up call, then the mean wall-clock over [iters] runs *)
let time_ns ~iters f =
  f ();
  let t0 = Clock.now () in
  for _ = 1 to iters do f () done;
  Clock.elapsed t0 *. 1e9 /. float_of_int iters

(* ------------------------ replay micro-benchmark -------------------- *)

(* Quantifies the CoW-template replay path against the legacy
   rebuild-the-address-space-per-replay loader on the fig7-style workload
   (FFT, Android-pipeline binary).  Writes BENCH_replay.json for CI. *)

let replay_bench () =
  let module Mem = Repro_os.Mem in
  let module Snapshot = Repro_capture.Snapshot in
  let module Replay = Repro_capture.Replay in
  let module Verify = Repro_capture.Verify in
  let module Trace = Repro_util.Trace in
  let app = Option.get (Repro_apps.Registry.find "FFT") in
  let dx = Repro_apps.Registry.dexfile app in
  let mids =
    Array.to_list
      (Array.map (fun m -> m.Repro_dex.Bytecode.cm_id)
         dx.Repro_dex.Bytecode.dx_methods)
  in
  let capture = Option.get (Repro_core.Pipeline.capture_once app) in
  let snap = capture.Repro_core.Pipeline.snapshot in
  let binary = Repro_lir.Compile.android_binary dx mids in
  let vmap = Verify.collect dx snap in
  let snapshot_pages =
    List.length snap.Snapshot.snap_pages + List.length snap.Snapshot.snap_common
  in
  (* per-evaluation setup: legacy full rebuild vs CoW clone of the template *)
  let legacy_build () =
    let mem = Mem.create () in
    List.iter
      (fun m ->
         Mem.map mem ~base:m.Mem.map_base ~npages:m.Mem.map_npages
           ~kind:m.Mem.map_kind ~name:m.Mem.map_name)
      snap.Snapshot.snap_maps;
    List.iter
      (fun p -> Mem.install_page mem ~page:p.Snapshot.pg_index p.Snapshot.pg_data)
      snap.Snapshot.snap_common;
    List.iter
      (fun p -> Mem.install_page mem ~page:p.Snapshot.pg_index p.Snapshot.pg_data)
      snap.Snapshot.snap_pages
  in
  let template = Snapshot.template snap in
  let clone_build () = Mem.drop (Mem.clone template) in
  let legacy_ns = time_ns ~iters:40 legacy_build in
  let clone_ns = time_ns ~iters:2000 clone_build in
  (* dirty-page accounting for one replay, via the trace counters *)
  Trace.enable ();
  Trace.reset ();
  let r = Replay.run dx snap Replay.Interpreter in
  let ctx = r.Repro_capture.Replay.ctx in
  let cloned_refs = Trace.counter_value "mem.clone_pages" in
  let cow_pages = Trace.counter_value "mem.cow_pages" in
  let scanned0 = Trace.counter_value "verify.pages_scanned" in
  ignore (Verify.diff_against_snapshot ctx snap);
  let pages_scanned_dirty = Trace.counter_value "verify.pages_scanned" - scanned0 in
  Trace.disable ();
  let mem = ctx.Repro_vm.Exec_ctx.mem in
  let pages_scanned_full =
    List.length (Mem.touched_pages mem ~kind:Mem.Rheap)
    + List.length (Mem.touched_pages mem ~kind:Mem.Rstatics)
  in
  (* verification scan: dirty-page walk vs the full reference scan *)
  let dirty_scan_ns =
    time_ns ~iters:400 (fun () -> ignore (Verify.diff_against_snapshot ctx snap))
  in
  let full_scan_ns =
    time_ns ~iters:100
      (fun () -> ignore (Verify.diff_against_snapshot_full ctx snap))
  in
  (* end-to-end verified replay (replay + compare), as fig7 runs it *)
  let check_ns =
    time_ns ~iters:25 (fun () -> ignore (Verify.check dx snap vmap binary))
  in
  let setup_speedup = legacy_ns /. clone_ns in
  let scan_speedup = full_scan_ns /. dirty_scan_ns in
  let combined_before = legacy_ns +. full_scan_ns in
  let combined_after = clone_ns +. dirty_scan_ns in
  let combined_speedup = combined_before /. combined_after in
  let oc = open_out "BENCH_replay.json" in
  Printf.fprintf oc
    {|{
  "workload": "FFT fig7-style verified replay (Android-pipeline binary)",
  "snapshot_pages": %d,
  "setup": {
    "legacy_rebuild_ns": %.0f,
    "cow_clone_ns": %.0f,
    "speedup": %.1f
  },
  "pages": {
    "copied_per_replay_legacy": %d,
    "ref_shared_per_clone": %d,
    "cow_copied_per_replay": %d
  },
  "verify": {
    "full_scan_ns": %.0f,
    "dirty_scan_ns": %.0f,
    "speedup": %.1f,
    "pages_scanned_dirty": %d,
    "pages_scanned_full": %d
  },
  "check": {
    "ns_per_check": %.0f,
    "checks_per_sec": %.1f
  },
  "combined": {
    "setup_plus_verify_before_ns": %.0f,
    "setup_plus_verify_after_ns": %.0f,
    "speedup": %.1f
  }
}
|}
    snapshot_pages legacy_ns clone_ns setup_speedup snapshot_pages cloned_refs
    cow_pages full_scan_ns dirty_scan_ns scan_speedup pages_scanned_dirty
    pages_scanned_full check_ns (1e9 /. check_ns) combined_before
    combined_after combined_speedup;
  close_out oc;
  Printf.printf "replay microbenchmark (FFT, %d snapshot pages)\n" snapshot_pages;
  Printf.printf "  setup   legacy rebuild %10.0f ns   CoW clone %8.0f ns   %6.1fx\n"
    legacy_ns clone_ns setup_speedup;
  Printf.printf "  pages   legacy copies %d/replay;  clone refs %d, CoW-copies %d\n"
    snapshot_pages cloned_refs cow_pages;
  Printf.printf "  verify  full scan %12.0f ns  dirty scan %8.0f ns   %6.1fx\n"
    full_scan_ns dirty_scan_ns scan_speedup;
  Printf.printf "          pages scanned: %d dirty vs %d materialized\n"
    pages_scanned_dirty pages_scanned_full;
  Printf.printf "  check   %.0f ns end-to-end (%.1f verified replays/sec)\n"
    check_ns (1e9 /. check_ns);
  Printf.printf "  combined setup+verify speedup: %.1fx %s\n"
    combined_speedup
    (if combined_speedup >= 3.0 then "(meets the 3x target)"
     else "(BELOW the 3x target)");
  print_endline "wrote BENCH_replay.json"

(* ----------------------- storage micro-benchmark --------------------- *)

(* Quantifies the content-addressed device store on the Figure 11-style
   workload: FFT and LU captured into one store.  Measures idle-spool
   throughput (enqueue + hash + dedup per page), the cross-app dedup
   ratio, validated (checksummed) read throughput, and the on-disk
   save/load round-trip.  Writes BENCH_storage.json for CI. *)

let storage_bench () =
  let module Storage = Repro_os.Storage in
  let module Snapshot = Repro_capture.Snapshot in
  let snaps =
    List.filter_map
      (fun name ->
         let app = Option.get (Repro_apps.Registry.find name) in
         Option.map
           (fun c -> (app, c.Repro_core.Pipeline.snapshot))
           (Repro_core.Pipeline.capture_once app))
      [ "FFT"; "LU" ]
  in
  let fill storage =
    List.iter (fun (_, snap) -> Snapshot.store storage snap) snaps
  in
  (* spool path: enqueue both captures, then hash+dedup+store every page *)
  let reference = Storage.create () in
  fill reference;
  let total_pages = Storage.pending reference in
  Storage.flush reference;
  let spool_ns =
    time_ns ~iters:5 (fun () ->
        let storage = Storage.create () in
        fill storage;
        Storage.flush storage)
    /. float_of_int total_pages
  in
  (* dedup accounting across the two apps (paper Figure 11 sharing) *)
  let ac = Storage.accounting reference in
  let dedup_ratio =
    float_of_int ac.Storage.ac_logical_bytes
    /. float_of_int ac.Storage.ac_physical_bytes
  in
  (* validated read: every page of every blob re-checksummed on the way out *)
  let read_ns =
    time_ns ~iters:10 (fun () ->
        List.iter
          (fun label ->
             match Storage.read reference ~label with
             | Ok _ -> ()
             | Error e -> failwith (Storage.describe e))
          (Storage.labels reference))
    /. float_of_int total_pages
  in
  (* on-disk round-trip: deterministic serialization, degradation-checked
     load *)
  let file = Filename.temp_file "repro_store" ".bin" in
  let save_ns = time_ns ~iters:5 (fun () -> Storage.save reference file) in
  let file_bytes =
    In_channel.with_open_bin file In_channel.length |> Int64.to_int
  in
  let load_warnings = ref 0 in
  let load_ns =
    time_ns ~iters:5 (fun () ->
        let _, warnings = Storage.load file in
        load_warnings := List.length warnings)
  in
  Sys.remove file;
  let mb bytes = float_of_int bytes /. 1048576. in
  let oc = open_out "BENCH_storage.json" in
  Printf.fprintf oc
    {|{
  "workload": "FFT+LU captures into one content-addressed store",
  "pages": %d,
  "spool": {
    "ns_per_page": %.0f,
    "pages_per_sec": %.0f
  },
  "dedup": {
    "logical_bytes": %d,
    "physical_bytes": %d,
    "ratio": %.2f,
    "shared_bytes": %d,
    "saved_bytes": %d
  },
  "read": {
    "ns_per_page": %.0f,
    "pages_per_sec": %.0f
  },
  "disk": {
    "file_bytes": %d,
    "save_ns": %.0f,
    "load_ns": %.0f,
    "load_warnings": %d
  }
}
|}
    total_pages spool_ns (1e9 /. spool_ns) ac.Storage.ac_logical_bytes
    ac.Storage.ac_physical_bytes dedup_ratio ac.Storage.ac_shared_bytes
    ac.Storage.ac_dedup_saved_bytes read_ns (1e9 /. read_ns) file_bytes
    save_ns load_ns !load_warnings;
  close_out oc;
  Printf.printf "storage microbenchmark (FFT+LU, %d pages)\n" total_pages;
  Printf.printf "  spool   %8.0f ns/page  (%.0f pages/sec hashed+deduped)\n"
    spool_ns (1e9 /. spool_ns);
  Printf.printf
    "  dedup   logical %.2f MB stored as %.2f MB  (%.2fx; %.2f MB shared \
     across apps)\n"
    (mb ac.Storage.ac_logical_bytes) (mb ac.Storage.ac_physical_bytes)
    dedup_ratio (mb ac.Storage.ac_shared_bytes);
  Printf.printf "  read    %8.0f ns/page validated (%.0f pages/sec)\n"
    read_ns (1e9 /. read_ns);
  Printf.printf
    "  disk    %.2f MB file; save %.1f ms, load+verify %.1f ms, %d warnings\n"
    (mb file_bytes) (save_ns /. 1e6) (load_ns /. 1e6) !load_warnings;
  print_endline "wrote BENCH_storage.json"

(* ----------------------- corpus benchmark --------------------------- *)

(* The cross-input verification experiment: unsafe-pass survival rate as a
   function of corpus size K (the headline table), plus the *measured* cost
   of a corpus — wall-clock capture time, per-candidate verification time
   with and without the corpus, and how far content-addressed dedup
   compresses K snapshots of the same app.  Writes BENCH_corpus.json. *)

let corpus_bench () =
  let module Storage = Repro_os.Storage in
  let module Snapshot = Repro_capture.Snapshot in
  let module Verify = Repro_capture.Verify in
  let module P = Repro_core.Pipeline in
  let s = E.survival () in
  E.print_survival s;
  (* wall-clock corpus capture on FFT: primary alone vs a K=4 corpus *)
  let app = Option.get (Repro_apps.Registry.find "FFT") in
  let k = 4 in
  let primary_ns =
    time_ns ~iters:3 (fun () -> ignore (P.capture_once app))
  in
  let corpus_ns =
    time_ns ~iters:3 (fun () -> ignore (P.capture_corpus ~k app))
  in
  let co = Option.get (P.capture_corpus ~k app) in
  let env =
    P.make_eval_env ~corpus:co.P.co_entries app co.P.co_primary
  in
  let binary = P.android_binary_for app in
  (* per-candidate verification: primary-only vs full-corpus (the Android
     binary passes everywhere, so this is the no-short-circuit worst case) *)
  let verify1_ns =
    time_ns ~iters:10 (fun () ->
        ignore (Verify.check env.P.dx env.P.capture.P.snapshot env.P.vmap binary))
  in
  let verifyk_ns =
    time_ns ~iters:10 (fun () -> ignore (P.verify_core env binary))
  in
  (* storage cost of the corpus: K snapshots of one app, deduped *)
  let storage = Storage.create () in
  Snapshot.store storage co.P.co_primary.P.snapshot;
  List.iter (fun ce -> Snapshot.store storage ce.P.ce_snapshot) co.P.co_entries;
  Storage.flush storage;
  let ac = Storage.accounting storage in
  let dedup_ratio =
    float_of_int ac.Storage.ac_logical_bytes
    /. float_of_int (max 1 ac.Storage.ac_physical_bytes)
  in
  let n_entries = List.length co.P.co_entries in
  let oc = open_out "BENCH_corpus.json" in
  let points_json =
    String.concat ",\n    "
      (List.map
         (fun p ->
            Printf.sprintf
              {|{ "k": %d, "tested": %d, "survived": %d, "rate": %.4f }|}
              p.E.sp_k p.E.sp_tested p.E.sp_survived
              (float_of_int p.E.sp_survived
               /. float_of_int (max 1 p.E.sp_tested)))
         s.E.su_points)
  in
  let genomes_json =
    String.concat ",\n    "
      (List.map
         (fun g ->
            Printf.sprintf {|{ "app": %S, "genome": %S, "killed_at": %s }|}
              g.E.sg_app g.E.sg_label
              (match g.E.sg_killed_at with
               | Some k -> string_of_int k
               | None -> "null"))
         s.E.su_genomes)
  in
  Printf.fprintf oc
    {|{
  "workload": "unsafe-pass survival vs corpus size (five Scimark kernels)",
  "seed": %d,
  "kmax": %d,
  "survival": [
    %s
  ],
  "genomes": [
    %s
  ],
  "pinned_killed_at": %s,
  "corpus_entries": %d,
  "corpus_checks": %d,
  "capture": {
    "simulated_ms_per_entry": %.2f,
    "primary_only_ns": %.0f,
    "corpus_k%d_ns": %.0f,
    "overhead_ratio": %.2f
  },
  "verify": {
    "primary_only_ns": %.0f,
    "corpus_k%d_ns": %.0f,
    "overhead_ratio": %.2f
  },
  "storage": {
    "snapshots": %d,
    "logical_bytes": %d,
    "physical_bytes": %d,
    "dedup_ratio": %.2f
  }
}
|}
    s.E.su_seed s.E.su_kmax points_json genomes_json
    (match s.E.su_pinned_killed_at with
     | Some k -> string_of_int k
     | None -> "null")
    s.E.su_corpus_entries s.E.su_corpus_checks s.E.su_capture_ms primary_ns
    k corpus_ns (corpus_ns /. primary_ns) verify1_ns k verifyk_ns
    (verifyk_ns /. verify1_ns) (1 + n_entries) ac.Storage.ac_logical_bytes
    ac.Storage.ac_physical_bytes dedup_ratio;
  close_out oc;
  Printf.printf "\ncorpus cost (FFT, K=%d: primary + %d secondaries)\n"
    k n_entries;
  Printf.printf "  capture  primary %8.1f ms   corpus %8.1f ms   %.2fx\n"
    (primary_ns /. 1e6) (corpus_ns /. 1e6) (corpus_ns /. primary_ns);
  Printf.printf "  verify   primary %8.2f ms   corpus %8.2f ms   %.2fx \
                 (pass-everywhere worst case)\n"
    (verify1_ns /. 1e6) (verifyk_ns /. 1e6) (verifyk_ns /. verify1_ns);
  Printf.printf "  storage  %d snapshots: %.2f MB logical -> %.2f MB \
                 physical (%.2fx dedup)\n"
    (1 + n_entries)
    (float_of_int ac.Storage.ac_logical_bytes /. 1048576.)
    (float_of_int ac.Storage.ac_physical_bytes /. 1048576.)
    dedup_ratio;
  print_endline "wrote BENCH_corpus.json"

(* --------------------- execution-engine benchmark -------------------- *)

(* Block-fused executor vs the per-instruction reference engine on the
   fig7-style workload: FFT verified replays under both the Android
   pipeline binary and the LLVM -O3 region binary.  Re-checks the
   bit-identical contract on the way (outcome and final cycle counter
   agree per binary per engine) and writes BENCH_exec.json so CI can
   assert the >=1.3x replay speedup and nonzero fusion/hoisting
   counters. *)
let exec_bench () =
  let module Replay = Repro_capture.Replay in
  let module Blockexec = Repro_lir.Blockexec in
  let module Blockplan = Repro_lir.Blockplan in
  let module Trace = Repro_util.Trace in
  let module P = Repro_core.Pipeline in
  let app = Option.get (Repro_apps.Registry.find "FFT") in
  let dx = Repro_apps.Registry.dexfile app in
  let capture = Option.get (P.capture_once app) in
  let snap = capture.P.snapshot in
  let env = P.make_eval_env app capture in
  let mids =
    Array.to_list
      (Array.map (fun m -> m.Repro_dex.Bytecode.cm_id)
         dx.Repro_dex.Bytecode.dx_methods)
  in
  let android = Repro_lir.Compile.android_binary dx mids in
  let workloads =
    [ ("android", Replay.Android_code android);
      ("o3", Replay.Optimized (P.o3_binary env)) ]
  in
  let run engine version = Replay.run ~engine dx snap version in
  let outcome_str = function
    | Replay.Finished (_, c) -> Printf.sprintf "finished:%d" c
    | Replay.Crashed m -> "crashed:" ^ m
    | Replay.Hung -> "hung"
  in
  (* the contract first: identical outcome and cycle accounting *)
  List.iter
    (fun (name, version) ->
       let a = run Blockexec.Ref version in
       let b = run Blockexec.Fused version in
       if
         outcome_str a.Replay.outcome <> outcome_str b.Replay.outcome
         || a.Replay.ctx.Repro_vm.Exec_ctx.cycles
            <> b.Replay.ctx.Repro_vm.Exec_ctx.cycles
       then
         failwith
           (Printf.sprintf "engine divergence on the %s workload: %s@%d vs %s@%d"
              name (outcome_str a.Replay.outcome)
              a.Replay.ctx.Repro_vm.Exec_ctx.cycles
              (outcome_str b.Replay.outcome)
              b.Replay.ctx.Repro_vm.Exec_ctx.cycles))
    workloads;
  (* fusion/hoisting/caching statistics: one cold pass builds the plans,
     a second pass must be served from the digest-keyed cache *)
  Trace.enable ();
  Trace.reset ();
  Blockplan.reset_cache ();
  List.iter (fun (_, v) -> ignore (run Blockexec.Fused v)) workloads;
  List.iter (fun (_, v) -> ignore (run Blockexec.Fused v)) workloads;
  let blocks_formed = Trace.counter_value "blockexec.blocks_formed" in
  let ops_fused = Trace.counter_value "blockexec.ops_fused" in
  let checks_hoisted = Trace.counter_value "blockexec.checks_hoisted" in
  let plan_builds = Trace.counter_value "blockexec.plan_builds" in
  let plan_cache_hits = Trace.counter_value "blockexec.plan_cache_hits" in
  Trace.reset ();
  Trace.disable ();
  (* wall-clock, tracing off (plans warm for both engines) *)
  let timed =
    List.map
      (fun (name, version) ->
         let ref_ns =
           time_ns ~iters:30 (fun () -> ignore (run Blockexec.Ref version))
         in
         let fused_ns =
           time_ns ~iters:30 (fun () -> ignore (run Blockexec.Fused version))
         in
         (name, ref_ns, fused_ns, ref_ns /. fused_ns))
      workloads
  in
  let android_speedup =
    match timed with (_, _, _, s) :: _ -> s | [] -> 0.0
  in
  let target = 1.3 in
  let entries =
    String.concat ",\n"
      (List.map
         (fun (name, r, f, s) ->
            Printf.sprintf
              "    \"%s\": { \"ref_ns\": %.0f, \"fused_ns\": %.0f, \
               \"speedup\": %.2f }"
              name r f s)
         timed)
  in
  let oc = open_out "BENCH_exec.json" in
  Printf.fprintf oc
    {|{
  "workload": "FFT verified replay: reference vs block-fused engine",
  "binaries": {
%s
  },
  "plan": {
    "blocks_formed": %d,
    "ops_fused": %d,
    "checks_hoisted": %d,
    "plan_builds": %d,
    "plan_cache_hits": %d
  },
  "target_speedup": %.2f,
  "android_speedup": %.2f,
  "meets_target": %b
}
|}
    entries blocks_formed ops_fused checks_hoisted plan_builds plan_cache_hits
    target android_speedup (android_speedup >= target);
  close_out oc;
  Printf.printf "execution-engine benchmark (FFT verified replay)\n";
  List.iter
    (fun (name, r, f, s) ->
       Printf.printf "  %-8s ref %12.0f ns   fused %12.0f ns   %5.2fx\n"
         name r f s)
    timed;
  Printf.printf
    "  plan     %d blocks, %d ops fused, %d checks hoisted \
     (%d builds, %d cache hits)\n"
    blocks_formed ops_fused checks_hoisted plan_builds plan_cache_hits;
  Printf.printf "  android speedup: %.2fx %s\n" android_speedup
    (if android_speedup >= target then "(meets the 1.3x target)"
     else "(BELOW the 1.3x target)");
  print_endline "wrote BENCH_exec.json"

(* --------------------- staged-compilation benchmark ------------------ *)

(* Cold vs cached generation compile time on a two-generation FFT search
   shape: generation 1 (parents) warms the stage cache, then the
   generation-2 compile stream — elite survivors, crossover/mutation
   children, and the hill-climbing neighborhood (single-gene deletions
   plus parameter tweaks of the best genome, re-proposed across rounds)
   that [Pipeline.optimize] always runs after the GA generations — is
   timed three ways: the legacy per-genome path (front-end rebuilt every
   compile, no prefix reuse: the pre-stage-cache cost), the staged path
   with the cache disabled (hoisted front-end only), and the staged path
   with the cache warmed by generation 1.  The stream is what reaches the
   compile stage itself (the Evalpool genome memo sits above it and is
   measured separately; under [--no-cache] this is exactly the submitted
   workload).  A differential check runs first: per genome, the legacy
   and staged paths must agree on outcome classification and binary
   digest.  Writes BENCH_compile.json so CI can gate the >=2x
   cached-generation speedup with nonzero prefix hits. *)
let compile_bench () =
  let module P = Repro_core.Pipeline in
  let module Compile = Repro_lir.Compile in
  let module Stagecache = Repro_lir.Stagecache in
  let module Genome = Repro_search.Genome in
  let module Rng = Repro_util.Rng in
  let app = Option.get (Repro_apps.Registry.find "FFT") in
  let capture = Option.get (P.capture_once app) in
  let env = P.make_eval_env app capture in
  let fe = env.P.frontend in
  let dx = env.P.dx and region = env.P.region in
  let profile = Repro_capture.Typeprof.lookup env.P.typeprof in
  let rng = Rng.create 42 in
  (* quick_config shapes: population 14, 2 elites carried per generation *)
  let n_parents = 14 and n_children = 14 in
  let parents =
    List.init n_parents (fun _ -> Genome.dedup_adjacent (Genome.random rng))
  in
  let parent () = List.nth parents (Rng.int rng n_parents) in
  let children =
    (* the quick-config GA keeps 2 elites per generation and breeds the
       rest by single-point crossover plus light per-gene mutation *)
    List.init n_children (fun i ->
        if i < 2 then List.nth parents i
        else
          Genome.mutate rng ~gene_prob:0.1
            (Genome.crossover rng (parent ()) (parent ())))
  in
  let parent_cost g =
    (* total recorded pass work of a parent, read back from the stage
       cache warmed below; 0 when the compile aborted (no full entry) *)
    let fps = Stagecache.fingerprints ~frontend:(Compile.frontend_digest fe)
        (Genome.to_spec g)
    in
    List.fold_left
      (fun acc mid ->
         match Stagecache.lookup ~frontend:(Compile.frontend_digest fe) ~mid
                 ~fps with
         | Some (k, e) when k = Array.length fps ->
           acc + Array.fold_left ( + ) 0 e.Stagecache.sc_charges
         | _ -> acc)
      0 region
  in
  let neighborhood best =
    (* one Ga.hill_climb_batch round around the incumbent best: every
       single-gene deletion plus six parameter-tweak mutants *)
    let deletions =
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) best) best
    in
    let tweaks =
      List.init 6 (fun _ -> Genome.mutate rng ~gene_prob:0.15 best)
    in
    List.filter
      (fun g -> List.length g >= Genome.min_length)
      (deletions @ tweaks)
  in
  let classify f =
    match f () with
    | b -> "ok:" ^ Repro_lir.Binary.digest b
    | exception Compile.Compile_error msg -> "error:" ^ msg
    | exception Compile.Compile_timeout -> "timeout"
  in
  let staged g () = Compile.llvm_binary_staged fe (Genome.to_spec g) region in
  let legacy g () =
    Compile.llvm_binary ~profile dx (Genome.to_spec g) region
  in
  let compile_all path gs = List.iter (fun g -> ignore (classify (path g))) gs in
  (* warm the cache with generation 1, then finish the generation-2
     stream: the hill-climb neighborhood forms around the incumbent best,
     for which the most expensive parent stands in (the survivors worth
     climbing from are the heavily optimizing genomes) *)
  Stagecache.reset ();
  compile_all staged parents;
  let best =
    List.fold_left
      (fun acc g -> if parent_cost g > parent_cost acc then g else acc)
      (List.hd parents) (List.tl parents)
  in
  let rounds = 2 in
  let children =
    children @ List.concat (List.init rounds (fun _ -> neighborhood best))
  in
  let n_children = List.length children in
  (* the transparency contract first: warm cache vs legacy, genome by
     genome — identical classification, identical binary digests *)
  List.iteri
    (fun i g ->
       let a = classify (legacy g) in
       let b = classify (staged g) in
       if a <> b then
         failwith
           (Printf.sprintf "stage-cache divergence on generation-2 genome %d: \
                            legacy %s vs staged %s" i a b))
    children;
  (* prefix-reuse accounting for one honest generation-2 compile *)
  Stagecache.reset ();
  compile_all staged parents;
  let s0 = Stagecache.stats () in
  compile_all staged children;
  let s1 = Stagecache.stats () in
  let hits = s1.Stagecache.prefix_hits - s0.Stagecache.prefix_hits in
  let misses = s1.Stagecache.prefix_misses - s0.Stagecache.prefix_misses in
  let reused = s1.Stagecache.genes_reused - s0.Stagecache.genes_reused in
  let ran = s1.Stagecache.genes_run - s0.Stagecache.genes_run in
  let frac a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  (* wall-clock: per-iteration cache preparation is excluded *)
  let time_gen2 ~iters ~prepare f =
    prepare ();
    f ();
    let total = ref 0.0 in
    for _ = 1 to iters do
      prepare ();
      Gc.full_major ();
      let t0 = Clock.now () in
      f ();
      total := !total +. Clock.elapsed t0
    done;
    !total *. 1e9 /. float_of_int iters
  in
  let iters = 4 in
  let cold_ns =
    time_gen2 ~iters ~prepare:(fun () -> ())
      (fun () -> compile_all legacy children)
  in
  Stagecache.set_enabled false;
  let nocache_ns =
    time_gen2 ~iters ~prepare:(fun () -> ())
      (fun () -> compile_all staged children)
  in
  Stagecache.set_enabled true;
  (* first visit: generation 2 compiled with only generation 1 cached —
     partial prefix reuse, full-length prefixes on exact re-proposals *)
  let gen2_ns =
    time_gen2 ~iters
      ~prepare:(fun () ->
          Stagecache.reset ();
          compile_all staged parents)
      (fun () -> compile_all staged children)
  in
  (* steady state: the same generation with its states resident — what a
     repeated generation costs once the cache holds it (under [--no-cache]
     every genome a converged population re-breeds reaches the compile
     stage again; this is also the cache's ceiling) *)
  let warm_ns =
    time_gen2 ~iters ~prepare:(fun () -> ())
      (fun () -> compile_all staged children)
  in
  let speedup = cold_ns /. warm_ns in
  let gen2_speedup = cold_ns /. gen2_ns in
  let frontend_speedup = cold_ns /. nocache_ns in
  let prefix_speedup = nocache_ns /. gen2_ns in
  let target = 2.0 in
  let meets = speedup >= target && gen2_speedup > 1.0 && hits > 0 in
  let oc = open_out "BENCH_compile.json" in
  Printf.fprintf oc
    {|{
  "workload": "FFT 2-generation search: generation-2 compile time (%d genomes, %d region methods)",
  "generation": { "parents": %d, "children": %d },
  "cold_ns": %.0f,
  "staged_nocache_ns": %.0f,
  "gen2_ns": %.0f,
  "warm_ns": %.0f,
  "speedup": %.2f,
  "gen2_speedup": %.2f,
  "frontend_speedup": %.2f,
  "prefix_speedup": %.2f,
  "stage": {
    "prefix_hits": %d,
    "prefix_misses": %d,
    "hit_rate": %.3f,
    "genes_reused": %d,
    "genes_run": %d,
    "reuse_frac": %.3f,
    "longest_prefix": %d,
    "entries": %d,
    "bytes_held": %d,
    "evictions": %d
  },
  "target_speedup": %.2f,
  "meets_target": %b
}
|}
    n_children (List.length region) n_parents n_children cold_ns nocache_ns
    gen2_ns warm_ns speedup gen2_speedup frontend_speedup prefix_speedup
    hits misses
    (frac hits misses) reused ran (frac reused ran)
    s1.Stagecache.longest_prefix s1.Stagecache.entries
    s1.Stagecache.bytes_held s1.Stagecache.evictions target meets;
  close_out oc;
  Printf.printf "staged-compilation benchmark (FFT, generation of %d genomes)\n"
    n_children;
  Printf.printf
    "  gen-2 compile   cold %9.1f ms   nocache %9.1f ms   first visit \
     %9.1f ms   warm %7.1f ms\n"
    (cold_ns /. 1e6) (nocache_ns /. 1e6) (gen2_ns /. 1e6) (warm_ns /. 1e6);
  Printf.printf
    "  speedup         %.2fx warm (gated), %.2fx first visit (%.2fx \
     hoisted front-end, %.2fx prefix reuse)\n"
    speedup gen2_speedup frontend_speedup prefix_speedup;
  Printf.printf
    "  stage cache     %d/%d prefix hits (%.0f%%), %d/%d genes reused \
     (%.0f%%), longest prefix %d\n"
    hits (hits + misses)
    (100.0 *. frac hits misses)
    reused (reused + ran)
    (100.0 *. frac reused ran)
    s1.Stagecache.longest_prefix;
  Printf.printf "  residency       %d entries, %.2f MB, %d evictions\n"
    s1.Stagecache.entries
    (float_of_int s1.Stagecache.bytes_held /. 1048576.)
    s1.Stagecache.evictions;
  Printf.printf "  %.2fx %s\n" speedup
    (if meets then "(meets the 2x target)" else "(BELOW the 2x target)");
  print_endline "wrote BENCH_compile.json"

(* --------------------------- fleet benchmark ------------------------- *)

(* The crowdsourced-deployment benchmark: one app's GA sharded across a
   simulated device fleet (Repro_fleet).  Measures (a) fleet throughput —
   device samples and GA evaluations per second — as fleet size and worker
   count grow, re-asserting the byte-identical-history contract across -j
   on the way; (b) convergence against the single-device search at the
   same configuration (both sides run the pipeline session, hill climb
   included; winners compared by verified replay on the reference
   environment); and (c) the genome bank's warm-start value: hit rate and
   generations saved on a second search against the same bank.  Writes
   BENCH_fleet.json for CI. *)
let fleet_bench ~jobs () =
  let module P = Repro_core.Pipeline in
  let module Fleet = Repro_fleet.Fleet in
  let module Bank = Repro_fleet.Bank in
  let seed = 7 in
  let app = Option.get (Repro_apps.Registry.find "FFT") in
  let co = Option.get (P.capture_corpus ~seed ~k:2 app) in
  let cfg =
    { Fleet.default_config with
      Fleet.ga = { Ga.quick_config with Ga.generations = 3 } }
  in
  let timed_run ?bank ~jobs ~devices () =
    (* every timed run compiles cold: the process-global stage cache would
       otherwise hand later runs their compiles for free and swamp the
       j1-vs-jN comparison *)
    Repro_lir.Stagecache.reset ();
    let t0 = Clock.now () in
    let r = Fleet.run ~jobs ~cache:true ?bank ~cfg ~seed ~devices co in
    (r, Clock.elapsed t0)
  in
  (* (a) throughput scaling over fleet size and worker count, with the
     determinism contract re-checked across -j per size *)
  let j_hi = max jobs 4 in
  let sizes = [ 50; 250; 1000 ] in
  let scaling =
    List.map
      (fun devices ->
         let r1, w1 = timed_run ~jobs:1 ~devices () in
         let rj, wj = timed_run ~jobs:j_hi ~devices () in
         if r1.Fleet.history_digest <> rj.Fleet.history_digest then
           failwith
             (Printf.sprintf
                "fleet determinism violation at %d devices: -j1 %s vs -j%d %s"
                devices r1.Fleet.history_digest j_hi rj.Fleet.history_digest);
         (devices, r1, w1, rj, wj))
      sizes
  in
  (* all the session's evaluations, the final hill climb's included *)
  let evaluations r = r.Fleet.opt.P.pool_stats.Repro_search.Evalpool.tasks in
  let evals_per_sec r w = float_of_int (evaluations r) /. w in
  let samples_per_sec r w = float_of_int r.Fleet.fleet_samples /. w in
  (* (b) convergence vs the single-device search at the same budget: the
     same session (seed, config, corpus) under the default finish policy *)
  let fleet_big, _ =
    match List.rev scaling with
    | (_, _, _, rj, wj) :: _ -> (rj, wj)
    | [] -> assert false
  in
  let single =
    P.optimize ~seed ~cfg:cfg.Fleet.ga ~jobs:j_hi ~corpus:co.P.co_entries app
      co.P.co_primary
  in
  let single_ms = Option.bind single.P.best_binary (P.replay_ms single.P.env) in
  let fleet_ms = fleet_big.Fleet.winner_ms in
  let converges =
    match (fleet_ms, single_ms) with
    | Some f, Some s -> f <= s *. 1.05
    | _ -> false
  in
  (* (c) bank warm start: a cold search populates the bank, a second
     search seeds from it *)
  let bank = Bank.create () in
  let cold, _ = timed_run ~bank ~jobs:j_hi ~devices:250 () in
  let warm, _ = timed_run ~bank ~jobs:j_hi ~devices:250 () in
  let hit_rate =
    float_of_int warm.Fleet.bank_seeds
    /. float_of_int cfg.Fleet.ga.Ga.population
  in
  (* generation at which each search first reached its final best fitness *)
  let gen_of_best ga =
    match ga.Ga.best with
    | None -> None
    | Some (_, fit) ->
      List.find_map
        (fun r ->
           if r.Ga.ev_fitness = Some fit then Some r.Ga.ev_generation
           else None)
        ga.Ga.history
  in
  let gens_saved =
    match (gen_of_best cold.Fleet.opt.P.ga, gen_of_best warm.Fleet.opt.P.ga) with
    | Some c, Some w -> c - w
    | _ -> 0
  in
  let fmt_ms = function Some ms -> Printf.sprintf "%.3f" ms | None -> "null" in
  let scaling_json =
    String.concat ",\n    "
      (List.map
         (fun (devices, r1, w1, rj, wj) ->
            Printf.sprintf
              {|{ "devices": %d, "capable": %d, "evaluations": %d, "fleet_samples": %d, "j1": { "wall_s": %.2f, "evals_per_sec": %.2f, "samples_per_sec": %.0f }, "j%d": { "wall_s": %.2f, "evals_per_sec": %.2f, "samples_per_sec": %.0f }, "digest": "%s" }|}
              devices r1.Fleet.capable (evaluations r1)
              r1.Fleet.fleet_samples w1 (evals_per_sec r1 w1)
              (samples_per_sec r1 w1) j_hi wj (evals_per_sec rj wj)
              (samples_per_sec rj wj) r1.Fleet.history_digest)
         scaling)
  in
  (* judged on the largest fleet: the most work per run, so scheduling
     overhead is smallest relative to the evaluations themselves.  On a
     single-core box extra domains can only time-slice, so the scaling
     expectation is conditional on the hardware (CI gates on
     scales_with_jobs || cores == 1). *)
  let cores = Domain.recommended_domain_count () in
  let scales =
    match List.rev scaling with
    | (_, r1, w1, rj, wj) :: _ ->
      evals_per_sec rj wj > evals_per_sec r1 w1
    | [] -> false
  in
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    {|{
  "workload": "FFT GA sharded over a simulated device fleet (quick config, 3 generations)",
  "seed": %d,
  "jobs_hi": %d,
  "cores": %d,
  "scaling": [
    %s
  ],
  "scales_with_jobs": %b,
  "convergence": {
    "budget_evaluations": { "fleet": %d, "single": %d },
    "fleet_winner_ms": %s,
    "single_winner_ms": %s,
    "fleet_within_5pct": %b
  },
  "bank": {
    "cold_entries": %d,
    "warm_seeds_used": %d,
    "hit_rate": %.3f,
    "gen_of_best_cold": %d,
    "gen_of_best_warm": %d,
    "generations_saved": %d,
    "cold_digest": "%s",
    "warm_digest": "%s"
  }
}
|}
    seed j_hi cores scaling_json scales fleet_big.Fleet.opt.P.ga.Ga.evaluations
    single.P.ga.Ga.evaluations (fmt_ms fleet_ms) (fmt_ms single_ms) converges
    (Bank.size bank) warm.Fleet.bank_seeds hit_rate
    (Option.value ~default:(-1) (gen_of_best cold.Fleet.opt.P.ga))
    (Option.value ~default:(-1) (gen_of_best warm.Fleet.opt.P.ga))
    gens_saved cold.Fleet.history_digest warm.Fleet.history_digest;
  close_out oc;
  Printf.printf "fleet benchmark (FFT, %d-generation quick GA)\n"
    cfg.Fleet.ga.Ga.generations;
  List.iter
    (fun (devices, r1, w1, rj, wj) ->
       Printf.printf
         "  %5d devices  j1 %6.1f s (%5.1f evals/s, %6.0f samples/s)   \
          j%d %6.1f s (%5.1f evals/s, %6.0f samples/s)\n"
         devices w1 (evals_per_sec r1 w1) (samples_per_sec r1 w1) j_hi wj
         (evals_per_sec rj wj) (samples_per_sec rj wj))
    scaling;
  Printf.printf
    "  histories byte-identical across -j1/-j%d at every size (%d core(s): \
     %s)\n"
    j_hi cores
    (if scales then "evals/sec scales with -j"
     else if cores <= 1 then "single core, -j scaling not expected"
     else "evals/sec did NOT scale with -j");
  Printf.printf
    "  convergence: fleet winner %s ms vs single-device %s ms at equal \
     budget %s\n"
    (fmt_ms fleet_ms) (fmt_ms single_ms)
    (if converges then "(within 5%)" else "(NOT within 5%)");
  Printf.printf
    "  bank: %d entries after cold run; warm run used %d seed(s) \
     (hit rate %.2f), %d generation(s) saved to best\n"
    (Bank.size bank) warm.Fleet.bank_seeds hit_rate gens_saved;
  print_endline "wrote BENCH_fleet.json"

(* --------------------------- serve benchmark ------------------------- *)

(* The service-mode benchmark: N apps' searches multiplexed over one shared
   evaluation pool by the round-robin scheduler (Repro_core.Serve).
   Measures (a) the digest contract — every served tenant reproduces the
   digest of a standalone [Pipeline.optimize] run, at every admission
   width; (b) throughput as the admission-control width grows (1, 4 and 8
   concurrent apps over the same request set), with the fairness spread of
   the round-robin scheduler; and (c) kill/resume cost: a serve run
   aborted mid-search and resumed from its per-tenant checkpoints must
   spend no extra live evaluation batches versus an uninterrupted run
   (journal replay serves recorded outcomes without evaluating), with the
   wall-clock overhead — mostly the re-run captures — reported beside it.
   Writes BENCH_serve.json for CI. *)
let serve_bench ~jobs () =
  let module P = Repro_core.Pipeline in
  let module Serve = Repro_core.Serve in
  let seed = 7 in
  let cfg = { Ga.quick_config with Ga.population = 8; Ga.generations = 3 } in
  let apps =
    List.filter_map
      (fun n ->
         match Repro_apps.Registry.find n with
         | Some a when P.capture_corpus ~seed ~k:1 a <> None -> Some a
         | Some _ | None -> None)
      [ "FFT"; "SOR"; "MonteCarlo"; "LU"; "Sieve"; "BubbleSort";
        "SelectionSort"; "Fibonacci.iter" ]
  in
  let n_apps = List.length apps in
  let name_of a = a.Repro_apps.Registry.name in
  (* (a) the contract's right-hand side: what each app's standalone
     [repro optimize APP --seed 7] produces *)
  let standalone =
    List.map
      (fun a ->
         Repro_lir.Stagecache.reset ();
         let t0 = Clock.now () in
         let _, session =
           Option.get
             (P.start ~quarantine:(P.create_quarantine_log ())
                (P.request ~seed ~cfg a))
         in
         let opt = P.run_session session in
         (name_of a, P.search_digest opt, Clock.elapsed t0))
      apps
  in
  let standalone_wall =
    List.fold_left (fun acc (_, _, w) -> acc +. w) 0. standalone
  in
  (* one serve run over the full request set; checkpoints and the abort
     injection are optional.  Stage cache reset so every run compiles cold,
     like a fresh service process. *)
  let serve_run ?abort_after ?ckpts ~max_active () =
    Repro_lir.Stagecache.reset ();
    let t =
      Serve.create ~jobs ~queue_capacity:n_apps ?abort_after ~max_active ()
    in
    let t0 = Clock.now () in
    let aborted =
      try
        List.iter
          (fun a ->
             let checkpoint =
               Option.map (fun c -> List.assoc (name_of a) c) ckpts
             in
             ignore (Serve.submit t (Serve.request ~seed ~cfg ?checkpoint a)))
          apps;
        Serve.drive t;
        false
      with Repro_core.Checkpoint.Injected_abort -> true
    in
    let wall = Clock.elapsed t0 in
    let reports = Serve.reports t in
    let stats = Serve.stats t in
    Serve.shutdown t;
    (aborted, wall, reports, stats)
  in
  let digests_match reports =
    List.for_all2
      (fun (app, digest, _) r ->
         r.Serve.rp_app = app && r.Serve.rp_digest = Some digest)
      standalone reports
  in
  let live_batches reports =
    List.fold_left (fun acc r -> acc + r.Serve.rp_live_batches) 0 reports
  in
  (* (b) throughput vs admission width over the same request set *)
  let widths = List.filter (fun w -> w <= n_apps) [ 1; 4; 8 ] in
  let throughput =
    List.map
      (fun max_active ->
         let aborted, wall, reports, stats = serve_run ~max_active () in
         if aborted then failwith "serve aborted without an injection";
         if not (digests_match reports) then
           failwith
             (Printf.sprintf
                "serve digest contract violation at max_active=%d" max_active);
         (max_active, wall, stats))
      widths
  in
  (* (c) kill after a few live batches, resume from the checkpoints *)
  let ckpts =
    List.map
      (fun a ->
         let f = Filename.temp_file "repro_bench_serve" ".ckpt" in
         Sys.remove f;
         (name_of a, f))
      apps
  in
  Fun.protect
    ~finally:(fun () ->
        List.iter (fun (_, f) -> if Sys.file_exists f then Sys.remove f) ckpts)
  @@ fun () ->
  let abort_after = n_apps in
  let full_run =
    let aborted, wall, reports, _ = serve_run ~ckpts ~max_active:n_apps () in
    if aborted || not (digests_match reports) then
      failwith "checkpointed full serve run broke the digest contract";
    (wall, live_batches reports)
  in
  List.iter (fun (_, f) -> if Sys.file_exists f then Sys.remove f) ckpts;
  let interrupted =
    let aborted, wall, reports, _ =
      serve_run ~ckpts ~abort_after ~max_active:n_apps ()
    in
    if not aborted then failwith "abort injection did not fire";
    (wall, live_batches reports)
  in
  let resumed =
    let aborted, wall, reports, _ = serve_run ~ckpts ~max_active:n_apps () in
    if aborted || not (digests_match reports) then
      failwith "resumed serve run broke the digest contract";
    let replayed =
      List.fold_left (fun acc r -> acc + r.Serve.rp_replayed_batches) 0 reports
    in
    if replayed = 0 then failwith "resumed run replayed nothing";
    (wall, live_batches reports, replayed)
  in
  let wall_full, live_full = full_run in
  let wall_int, live_int = interrupted in
  let wall_res, live_res, replayed = resumed in
  let extra_live = live_int + live_res - live_full in
  let overhead_batches = float_of_int extra_live /. float_of_int live_full in
  let overhead_wall = (wall_int +. wall_res -. wall_full) /. wall_full in
  let concurrent_progress =
    List.for_all
      (fun (w, _, s) -> w < 2 || s.Serve.st_concurrent_rounds >= 2)
      throughput
  in
  let fairness_worst =
    List.fold_left
      (fun acc (_, _, s) -> Float.max acc s.Serve.st_fairness_spread)
      0. throughput
  in
  let throughput_json =
    String.concat ",\n    "
      (List.map
         (fun (w, wall, s) ->
            Printf.sprintf
              {|{ "max_active": %d, "wall_s": %.2f, "apps_per_min": %.2f, "rounds": %d, "concurrent_rounds": %d, "peak_active": %d, "fairness_spread": %.4f, "digests_match": true }|}
              w wall
              (float_of_int n_apps /. wall *. 60.)
              s.Serve.st_rounds s.Serve.st_concurrent_rounds
              s.Serve.st_peak_active s.Serve.st_fairness_spread)
         throughput)
  in
  let standalone_json =
    String.concat ",\n    "
      (List.map
         (fun (app, digest, w) ->
            Printf.sprintf {|{ "app": "%s", "digest": "%s", "wall_s": %.2f }|}
              app digest w)
         standalone)
  in
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    {|{
  "workload": "%d apps served over one shared pool (quick config, %d generations x %d genomes)",
  "seed": %d,
  "jobs": %d,
  "apps": %d,
  "standalone": [
    %s
  ],
  "standalone_wall_s": %.2f,
  "throughput": [
    %s
  ],
  "concurrent_progress": %b,
  "fairness_spread_worst": %.4f,
  "resume": {
    "abort_after_batches": %d,
    "full": { "wall_s": %.2f, "live_batches": %d },
    "interrupted": { "wall_s": %.2f, "live_batches": %d },
    "resumed": { "wall_s": %.2f, "live_batches": %d, "replayed_batches": %d },
    "extra_live_batches": %d,
    "resume_overhead_batches": %.4f,
    "resume_overhead_wall": %.4f,
    "digests_match": true
  }
}
|}
    n_apps cfg.Ga.generations cfg.Ga.population seed jobs n_apps
    standalone_json standalone_wall throughput_json concurrent_progress
    fairness_worst abort_after wall_full live_full wall_int live_int wall_res
    live_res replayed extra_live overhead_batches overhead_wall;
  close_out oc;
  Printf.printf "serve benchmark (%d apps, -j %d)\n" n_apps jobs;
  List.iter
    (fun (w, wall, s) ->
       Printf.printf
         "  max_active %d: %6.1f s (%5.2f apps/min), %d rounds (%d \
          concurrent), fairness spread %.4f\n"
         w wall
         (float_of_int n_apps /. wall *. 60.)
         s.Serve.st_rounds s.Serve.st_concurrent_rounds
         s.Serve.st_fairness_spread)
    throughput;
  Printf.printf
    "  every tenant matched its standalone digest at every width \
     (standalone total %.1f s)\n"
    standalone_wall;
  Printf.printf
    "  kill after %d batches + resume: %d extra live batch(es) (%.1f%% of \
     %d), wall %.2f s + %.2f s vs %.2f s uninterrupted (%.1f%% overhead), \
     %d batch(es) replayed from journals\n"
    abort_after extra_live (100. *. overhead_batches) live_full wall_int
    wall_res wall_full (100. *. overhead_wall) replayed;
  print_endline "wrote BENCH_serve.json"

let () =
  let full = ref false in
  let eager = ref false in
  let jobs = ref 1 in
  let no_cache = ref false in
  let trace = ref None in
  let metrics = ref false in
  let faults = ref None in
  let names_rev = ref [] in
  let usage () =
    prerr_endline
      "usage: bench/main.exe [EXPERIMENT...] [--full] [--eager] [-j N] \
       [--no-cache] [--no-stage-cache] [--engine ref|fused] [--trace FILE] \
       [--metrics] [--faults SPEC]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest -> full := true; parse rest
    | "--eager" :: rest -> eager := true; parse rest
    | "--no-cache" :: rest -> no_cache := true; parse rest
    | "--no-stage-cache" :: rest ->
      Repro_lir.Stagecache.set_enabled false;
      parse rest
    | "--metrics" :: rest -> metrics := true; parse rest
    | "--engine" :: e :: rest ->
      (match Repro_lir.Blockexec.engine_of_string e with
       | Some eng -> Repro_lir.Blockexec.set_default_engine eng; parse rest
       | None ->
         Printf.eprintf "bench: --engine expects ref or fused, got %s\n" e;
         usage ())
    | [ "--engine" ] ->
      prerr_endline "bench: --engine expects ref or fused";
      usage ()
    | "--trace" :: file :: rest -> trace := Some file; parse rest
    | [ "--trace" ] ->
      prerr_endline "bench: --trace expects a file name";
      usage ()
    | "--faults" :: spec :: rest ->
      (match Repro_util.Faults.parse_spec spec with
       | Ok cfg -> faults := Some cfg; parse rest
       | Error msg ->
         Printf.eprintf "bench: --faults: %s\n" msg;
         usage ())
    | [ "--faults" ] ->
      prerr_endline "bench: --faults expects a specification";
      usage ()
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v >= 1 -> jobs := v; parse rest
       | Some _ | None ->
         prerr_endline "bench: -j expects a positive integer";
         usage ())
    | [ "-j" ] | [ "--jobs" ] ->
      prerr_endline "bench: -j expects a positive integer";
      usage ()
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
      Printf.eprintf "bench: unknown option %s\n" a;
      usage ()
    | a :: rest -> names_rev := a :: !names_rev; parse rest
  in
  parse (Array.to_list Sys.argv |> List.tl);
  let names = List.rev !names_rev in
  let cfg = if !full then Ga.default_config else Ga.quick_config in
  if !trace <> None || !metrics then Repro_util.Trace.enable ();
  (match !faults with
   | Some cfg ->
     Repro_util.Faults.enable cfg;
     Repro_core.Pipeline.reset_quarantine ()
   | None -> ());
  let export_observability () =
    (match !trace with
     | Some file ->
       Repro_util.Trace.write_chrome file;
       Printf.printf "trace written to %s\n" file
     | None -> ());
    if !metrics then Repro_util.Trace.print_summary ();
    (match !faults with
     | Some cfg ->
       let module F = Repro_util.Faults in
       Printf.printf "fault injection (%s): %d faults injected\n"
         (F.spec_string cfg) (F.injected ());
       List.iter
         (fun (p, n) ->
            if n > 0 then Printf.printf "  %-18s %d\n" (F.point_name p) n)
         (F.injected_by_point ());
       let entries = Repro_core.Pipeline.quarantine_summary () in
       Printf.printf "quarantine: %d binary(ies) persistently failed \
                      verification\n"
         (List.length entries);
       F.disable ()
     | None -> ())
  in
  if names = [ "bechamel" ] then bechamel_suite ()
  else if names = [ "replay" ] then replay_bench ()
  else if names = [ "storage" ] then storage_bench ()
  else if names = [ "corpus" ] then corpus_bench ()
  else if names = [ "exec" ] then exec_bench ()
  else if names = [ "compile" ] then compile_bench ()
  else if names = [ "fleet" ] then fleet_bench ~jobs:!jobs ()
  else if names = [ "serve" ] then serve_bench ~jobs:!jobs ()
  else begin
    Fun.protect ~finally:export_observability (fun () ->
        run_all ~cfg ~eager:!eager ~jobs:!jobs ~cache:(not !no_cache) names;
        print_newline ();
        Repro_search.Evalpool.print_stats ~label:"evaluation pools"
          (Repro_search.Evalpool.cumulative_stats ());
        Repro_lir.Stagecache.print_stats (Repro_lir.Stagecache.stats ()));
    print_endline "done.  See EXPERIMENTS.md for paper-vs-measured notes."
  end
