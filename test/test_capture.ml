(* Tests for the capture/replay machinery: snapshots, replay determinism,
   verification maps, dispatch-type profiles, storage accounting. *)

open Repro_capture
module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem
module Vm = Repro_vm
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry
module Evalpool = Repro_search.Evalpool
module Genome = Repro_search.Genome

let fft () = Option.get (App.find "FFT")
let lu () = Option.get (App.find "LU")

let capture_app app = Option.get (Pipeline.capture_once ~seed:5 app)

(* one shared capture for most tests *)
let fft_capture = lazy (capture_app (fft ()))

let test_capture_produces_snapshot () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  Alcotest.(check bool) "program pages present" true
    (List.length snap.Snapshot.snap_pages > 0);
  Alcotest.(check bool) "common pages present" true
    (List.length snap.Snapshot.snap_common > 1000);
  Alcotest.(check bool) "args captured" true
    (List.length snap.Snapshot.snap_args = 2);
  Alcotest.(check bool) "code files logged, not stored" true
    (List.length snap.Snapshot.snap_code_files > 10)

let test_capture_overhead_positive () =
  let cap = Lazy.force fft_capture in
  let o = cap.Pipeline.overhead in
  Alcotest.(check bool) "fork > 0" true (o.Capture.fork_ms > 0.0);
  Alcotest.(check bool) "prep > 0" true (o.Capture.preparation_ms > 0.0);
  Alcotest.(check bool) "total < 50ms" true (Capture.total_ms o < 50.0);
  Alcotest.(check bool) "faults observed" true (o.Capture.n_faults > 0)

let test_capture_charges_online_time () =
  (* the same run without capture is faster: capture overhead is charged
     to the online execution *)
  let app = fft () in
  let plain = Pipeline.online_run ~seed:5 app in
  let cap = capture_app app in
  Alcotest.(check bool) "capture slows the online run" true
    (cap.Pipeline.capture_cycles > plain.Pipeline.cycles)

let test_replay_matches_original_region () =
  let cap = Lazy.force fft_capture in
  let app = fft () in
  let dx = App.dexfile app in
  let r = Replay.run dx cap.Pipeline.snapshot Replay.Interpreter in
  match r.Replay.outcome with
  | Replay.Finished (ret, _) ->
    Alcotest.(check bool) "region returns a float" true
      (match ret with Some (Vm.Value.Vfloat _) -> true | _ -> false)
  | _ -> Alcotest.fail "interpreted replay failed"

let test_replay_deterministic () =
  let cap = Lazy.force fft_capture in
  let dx = App.dexfile (fft ()) in
  let run () = Replay.run dx cap.Pipeline.snapshot Replay.Interpreter in
  let a = run () and b = run () in
  match a.Replay.outcome, b.Replay.outcome with
  | Replay.Finished (ra, ca), Replay.Finished (rb, cb) ->
    Alcotest.(check bool) "same result" true
      (match ra, rb with
       | Some x, Some y -> Vm.Value.equal x y
       | None, None -> true
       | _ -> false);
    Alcotest.(check int) "same cycles" ca cb
  | _ -> Alcotest.fail "replay failed"

let test_replay_code_versions_agree () =
  let cap = Lazy.force fft_capture in
  let app = fft () in
  let dx = App.dexfile app in
  let android = Repro_lir.Blockexec.load (Pipeline.android_binary_for app) in
  let interp = Replay.run dx cap.Pipeline.snapshot Replay.Interpreter in
  let compiled =
    Replay.run dx cap.Pipeline.snapshot (Replay.Android_code android)
  in
  match interp.Replay.outcome, compiled.Replay.outcome with
  | Replay.Finished (ri, ci), Replay.Finished (rc, cc) ->
    Alcotest.(check bool) "same result" true
      (match ri, rc with
       | Some x, Some y -> Vm.Value.equal x y
       | _ -> false);
    Alcotest.(check bool) "compiled faster" true (cc < ci)
  | _ -> Alcotest.fail "replay failed"

let test_verification_map_accepts_safe () =
  let app = lu () in
  let cap = capture_app app in
  let env = Pipeline.make_eval_env app cap in
  let binary =
    Repro_lir.Compile.llvm_binary env.Pipeline.frontend Repro_lir.Pipelines.o2
      env.Pipeline.region
  in
  match Verify.check (App.dexfile app) cap.Pipeline.snapshot env.Pipeline.vmap
          (Repro_lir.Blockexec.load binary) with
  | Verify.Passed _ -> ()
  | _ -> Alcotest.fail "O2 should verify"

let test_verification_map_rejects_fast_math () =
  let app = lu () in
  let cap = capture_app app in
  let env = Pipeline.make_eval_env app cap in
  let binary =
    Repro_lir.Compile.llvm_binary env.Pipeline.frontend
      (Repro_lir.Pipelines.o2 @ [ ("fast-math", [| 1; 1 |]) ])
      env.Pipeline.region
  in
  match Verify.check (App.dexfile app) cap.Pipeline.snapshot env.Pipeline.vmap
          (Repro_lir.Blockexec.load binary) with
  | Verify.Wrong_output -> ()
  | Verify.Passed _ -> Alcotest.fail "fast-math should change LU's bits"
  | Verify.Crashed m -> Alcotest.fail ("crashed: " ^ m)
  | Verify.Hung -> Alcotest.fail "hung"

(* Hand-built region bodies over the FFT capture exercise each failure
   class of Verify.check directly: the differential-testing net must not
   only accept good code, it must name *why* bad code was rejected. *)

module Hir = Repro_hgraph.Hir
module Binary = Repro_lir.Binary

let stub_func ~mid ~nparams build =
  let f =
    { Hir.f_mid = mid; f_name = "stub"; f_nparams = nparams;
      f_nregs = nparams; f_blocks = Hashtbl.create 4; f_entry = 0;
      f_next_bid = 0; f_pressure = None }
  in
  build f;
  f

(* the android binary with the hot-region root method swapped for [f],
   loaded for replay *)
let with_stub binary mid f =
  Repro_lir.Blockexec.load @@ Binary.create
    (List.map
       (fun m -> if m = mid then f else Option.get (Binary.find binary m))
       (Binary.mids binary))

let verify_fixture () =
  let app = fft () in
  let cap = Lazy.force fft_capture in
  let dx = App.dexfile app in
  let snap = cap.Pipeline.snapshot in
  let vmap = Verify.collect dx snap in
  let mid = cap.Pipeline.hot_mid in
  let nparams = List.length snap.Snapshot.snap_args in
  let binary = Pipeline.android_binary_for app in
  (dx, snap, vmap, mid, nparams, binary)

let test_verify_flags_wrong_output () =
  let dx, snap, vmap, mid, nparams, binary = verify_fixture () in
  let bad =
    stub_func ~mid ~nparams (fun f ->
        let r = Hir.fresh_reg f in
        ignore (Hir.add_block f [ Hir.Const (r, B.Cint 7) ] (Hir.Ret (Some r))))
  in
  match Verify.check dx snap vmap (with_stub binary mid bad) with
  | Verify.Wrong_output -> ()
  | Verify.Passed _ -> Alcotest.fail "constant region passed verification"
  | Verify.Crashed m -> Alcotest.fail ("crashed: " ^ m)
  | Verify.Hung -> Alcotest.fail "hung"

let test_verify_flags_crash () =
  let dx, snap, vmap, mid, nparams, binary = verify_fixture () in
  let bad =
    stub_func ~mid ~nparams (fun f ->
        let r = Hir.fresh_reg f in
        ignore (Hir.add_block f [ Hir.Const (r, B.Cint 7) ] (Hir.ThrowT r)))
  in
  match Verify.check dx snap vmap (with_stub binary mid bad) with
  | Verify.Crashed _ -> ()
  | Verify.Passed _ -> Alcotest.fail "throwing region passed verification"
  | Verify.Wrong_output -> Alcotest.fail "crash misreported as wrong output"
  | Verify.Hung -> Alcotest.fail "crash misreported as hang"

let test_verify_flags_hang () =
  let dx, snap, vmap, mid, nparams, binary = verify_fixture () in
  let bad =
    stub_func ~mid ~nparams (fun f ->
        ignore (Hir.add_block f [] (Hir.Goto 0)))
  in
  match Verify.check ~fuel:10_000 dx snap vmap (with_stub binary mid bad) with
  | Verify.Hung -> ()
  | Verify.Passed _ -> Alcotest.fail "infinite loop passed verification"
  | Verify.Wrong_output -> Alcotest.fail "hang misreported as wrong output"
  | Verify.Crashed m -> Alcotest.fail ("hang misreported as crash: " ^ m)

let test_typeprof_collected () =
  let app = Option.get (App.find "ColorOverflow") in
  let cap = capture_app app in
  let env = Pipeline.make_eval_env app cap in
  Alcotest.(check bool) "virtual sites profiled" true
    (Typeprof.total env.Pipeline.typeprof > 0)

module Storage = Repro_os.Storage

let test_storage_accounting () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  let storage = Storage.create () in
  Snapshot.store storage snap;
  Alcotest.(check int) "logical = program + common"
    (Snapshot.program_bytes snap + Snapshot.common_bytes snap)
    (Storage.accounting storage).Storage.ac_logical_bytes;
  Storage.flush storage;
  (* a second capture of another app: its boot-common pages dedup against
     the frames app 1 already stored — each shared page is stored once *)
  let cap2 = capture_app (lu ()) in
  let snap2 = cap2.Pipeline.snapshot in
  Snapshot.store storage snap2;
  Storage.flush storage;
  let hashes label =
    match Storage.manifest storage ~label with
    | Some entries -> List.map snd entries
    | None -> Alcotest.failf "blob %s missing" label
  in
  let common1 = hashes (Snapshot.common_label snap) in
  let common2 = hashes (Snapshot.common_label snap2) in
  let shared_frames =
    List.filter (fun h -> List.mem h common2) common1
  in
  Alcotest.(check bool) "boot-common pages shared across apps" true
    (List.length shared_frames > 100);
  List.iter
    (fun h ->
       match Storage.frame_refs storage ~hash:h with
       | Some rc -> Alcotest.(check bool) "stored once, referenced twice" true (rc >= 2)
       | None -> Alcotest.fail "shared frame missing")
    shared_frames;
  let ac = Storage.accounting storage in
  Alcotest.(check bool) "dedup ratio (logical/physical) above 1.5" true
    (float_of_int ac.Storage.ac_logical_bytes
     > 1.5 *. float_of_int ac.Storage.ac_physical_bytes);
  Alcotest.(check bool) "Figure 11 shape: shared bytes visible" true
    (ac.Storage.ac_shared_bytes >= List.length shared_frames * Storage.page_bytes);
  (* finishing app 1's optimization releases its program-specific blob;
     frames shared with app 2 survive *)
  Storage.delete storage ~label:(Snapshot.program_label snap);
  Alcotest.(check bool) "program blob released" false
    (Storage.contains storage ~label:(Snapshot.program_label snap));
  (match Storage.read storage ~label:(Snapshot.common_label snap2) with
   | Ok pages ->
     Alcotest.(check int) "app 2 intact after app 1 discard"
       (List.length snap2.Snapshot.snap_common) (List.length pages)
   | Error e -> Alcotest.fail (Storage.describe e))

(* with a device store attached, templates materialize from the store and
   a corrupted stored page surfaces as a crashed (quarantinable) replay —
   never an abort *)
let with_store f =
  let storage = Storage.create () in
  Snapshot.set_store (Some storage);
  Fun.protect
    ~finally:(fun () ->
        Snapshot.set_store None;
        Snapshot.invalidate_templates ())
    (fun () -> f storage)

let with_attached_store snap f =
  with_store (fun storage ->
      Snapshot.store storage snap;
      Storage.flush storage;
      Snapshot.invalidate_templates ();
      f storage)

let test_store_backed_template_equivalent () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  let app = fft () in
  let dx = App.dexfile app in
  let plain =
    match (Replay.run dx snap Replay.Interpreter).Replay.outcome with
    | Replay.Finished (ret, _) -> ret
    | _ -> Alcotest.fail "plain replay failed"
  in
  with_attached_store snap (fun storage ->
      Alcotest.(check bool) "templates read from the store" true
        (Storage.contains storage ~label:(Snapshot.program_label snap));
      match (Replay.run dx snap Replay.Interpreter).Replay.outcome with
      | Replay.Finished (ret, _) ->
        Alcotest.(check bool) "store-backed replay agrees" true
          (match ret, plain with
           | Some a, Some b -> Vm.Value.equal a b
           | None, None -> true
           | _ -> false)
      | _ -> Alcotest.fail "store-backed replay failed")

let test_store_corruption_quarantines_not_crashes () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  let app = fft () in
  let dx = App.dexfile app in
  with_attached_store snap (fun storage ->
      let hash =
        match Storage.manifest storage ~label:(Snapshot.program_label snap) with
        | Some ((_, h) :: _) -> h
        | _ -> Alcotest.fail "program blob empty"
      in
      Storage.corrupt storage ~hash ~byte:123;
      Snapshot.invalidate_templates ();
      (* the loader cannot rebuild the space: a crashed replay with the
         storage error, not an exception out of Replay.run *)
      (match (Replay.run dx snap Replay.Interpreter).Replay.outcome with
       | Replay.Crashed msg ->
         Alcotest.(check bool) "storage-prefixed verdict" true
           (String.length msg >= 8 && String.sub msg 0 8 = "storage:")
       | _ -> Alcotest.fail "corrupt store page not detected");
      (* un-corrupting is impossible (content-addressed); deleting the blob
         falls back to in-memory pages and replay works again *)
      Storage.delete storage ~label:(Snapshot.program_label snap);
      Snapshot.invalidate_templates ();
      match (Replay.run dx snap Replay.Interpreter).Replay.outcome with
      | Replay.Finished _ -> ()
      | _ -> Alcotest.fail "fallback to in-memory pages failed")

(* Pool workers outlive a batch, so their memoized templates must hear
   about invalidation too.  Verify binaries at -j2 with a store attached
   (workers build templates from it), corrupt a stored program page and
   invalidate, then verify the same binaries at -j2 on a fresh pool: every
   verdict is a storage crash — a worker still holding its pre-corruption
   template would pass. *)
let test_invalidation_reaches_pool_workers () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  with_attached_store snap (fun storage ->
      let env = Pipeline.make_eval_env (fft ()) cap in
      let verify tasks =
        Evalpool.evaluate_batch
          (Pipeline.make_core_pool ~jobs:2 ~cache:false env) tasks
      in
      let rng = Repro_util.Rng.create 17 in
      let drawn = Array.init 12 (fun i -> (i, Genome.random rng)) in
      let first = verify drawn in
      let tasks =
        Array.of_list
          (List.filteri
             (fun i _ ->
                match first.(i) with
                | Pipeline.Core_measured _ -> true
                | _ -> false)
             (Array.to_list drawn))
      in
      Alcotest.(check bool) "several binaries verified" true
        (Array.length tasks >= 4);
      let hash =
        match Storage.manifest storage ~label:(Snapshot.program_label snap) with
        | Some ((_, h) :: _) -> h
        | _ -> Alcotest.fail "program blob empty"
      in
      Storage.corrupt storage ~hash ~byte:123;
      Snapshot.invalidate_templates ();
      Array.iter
        (function
          | Pipeline.Core_crashed msg ->
            Alcotest.(check bool) "storage-prefixed verdict" true
              (String.starts_with ~prefix:"storage:" msg)
          | _ -> Alcotest.fail "a worker verified against a stale template")
        (verify tasks))

(* One template per snapshot serves the whole process, and the snapshot
   holds it: both pool domains receive the very same template, and once
   nothing else holds the snapshot, that template is garbage. *)
let test_dead_snapshot_frees_template () =
  let snap0 = (Lazy.force fft_capture).Pipeline.snapshot in
  let templates = Weak.create 2 in
  let pool = Repro_search.Domainpool.create ~workers:2 in
  Fun.protect ~finally:(fun () -> Repro_search.Domainpool.shutdown pool)
  @@ fun () ->
  (* a fresh snapshot record, with a slot nothing else holds *)
  let[@inline never] fill () =
    let snap = { snap0 with Snapshot.snap_template = Snapshot.no_template () } in
    Repro_search.Domainpool.run pool (fun wid ->
        Weak.set templates wid (Some (Snapshot.template snap)));
    let same =
      match Weak.get templates 0, Weak.get templates 1 with
      | Some a, Some b -> a == b
      | _ -> false
    in
    ignore (Sys.opaque_identity snap);
    same
  in
  Alcotest.(check bool) "both domains received one template" true (fill ());
  Gc.full_major ();
  List.iter
    (fun wid ->
       Alcotest.(check bool)
         (Printf.sprintf "worker %d template freed" wid) false
         (Weak.check templates wid))
    [ 0; 1 ]

(* Verification reads the captured words from the template.  The
   reference is the table verification used to build for that: every
   captured page, program pages replacing boot-common ones. *)
let captured_table (snap : Snapshot.t) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun { Snapshot.pg_index; pg_data } ->
       Hashtbl.replace table pg_index pg_data)
    (snap.Snapshot.snap_common @ snap.Snapshot.snap_pages);
  table

(* Every heap/static word of [mem] that differs from [table] (absent
   pages read as zero), scanning every materialized page. *)
let diff_against_table table mem =
  let pages =
    List.sort Int.compare
      (Mem.touched_pages mem ~kind:Mem.Rheap
       @ Mem.touched_pages mem ~kind:Mem.Rstatics)
  in
  List.concat_map
    (fun page ->
       let now = Option.get (Mem.page_bytes mem ~page) in
       let orig = Hashtbl.find_opt table page in
       List.filter_map
         (fun w ->
            let word data = Bytes.get_int64_le data (w * 8) in
            let o = match orig with Some a -> word a | None -> 0L in
            if word now = o then None
            else Some ((page * Mem.page_size) + (w * 8), word now))
         (List.init Mem.words_per_page Fun.id))
    pages

(* [tpl] holds every word [snap] captured *)
let holds what snap tpl =
  Hashtbl.iter
    (fun page words ->
       if Mem.page_bytes tpl ~page <> Some words then
         Alcotest.failf "%s: page %d differs from the capture" what page)
    (captured_table snap)

(* FFT's primary capture and its K=4 corpus: the template holds every
   captured word, built from the in-memory pages and again from
   checksum-checked store reads, and replays of random-genome binaries
   diff against it exactly as against the table. *)
let test_template_holds_captured_words () =
  let app = fft () in
  let dx = App.dexfile app in
  let co = Option.get (Pipeline.capture_corpus ~seed:7 ~k:4 app) in
  let snaps =
    co.Pipeline.co_primary.Pipeline.snapshot
    :: List.map (fun ce -> ce.Pipeline.ce_snapshot) co.Pipeline.co_entries
  in
  Alcotest.(check int) "primary and three corpus entries" 4
    (List.length snaps);
  List.iter
    (fun snap ->
       let tpl = Snapshot.template snap in
       holds "in-memory template" snap tpl;
       with_attached_store snap (fun storage ->
           Alcotest.(check bool) "the store holds the capture" true
             (Storage.contains storage ~label:(Snapshot.program_label snap));
           let stored = Snapshot.template snap in
           Alcotest.(check bool) "rebuilt from the store" true (stored != tpl);
           holds "store-backed template" snap stored))
    snaps;
  let region =
    Pipeline.region_methods app co.Pipeline.co_primary.Pipeline.hot_mid
  in
  let fe = Repro_lir.Compile.frontend dx in
  let rng = Repro_util.Rng.create 23 in
  let finished = ref 0 in
  for _ = 1 to 4 do
    match
      Repro_lir.Compile.llvm_binary fe (Genome.to_spec (Genome.random rng))
        region
    with
    | exception
        (Repro_lir.Compile.Compile_error _ | Repro_lir.Compile.Compile_timeout)
      -> ()
    | binary ->
      let loaded = Repro_lir.Blockexec.load binary in
      List.iter
        (fun snap ->
           let r = Replay.run dx snap (Replay.Optimized loaded) in
           (match r.Replay.outcome with
            | Replay.Finished _ -> incr finished
            | Replay.Crashed _ | Replay.Hung -> ());
           Alcotest.(check bool) "template diff = table diff" true
             (Verify.diff_against_snapshot r.Replay.ctx snap
              = diff_against_table (captured_table snap)
                  r.Replay.ctx.Vm.Exec_ctx.mem))
        snaps
  done;
  Alcotest.(check bool) "some replays finished" true (!finished > 0)

let test_eager_mode_costs_more () =
  let app = fft () in
  let normal = (capture_app app).Pipeline.overhead in
  let eager =
    (Option.get (Pipeline.capture_once ~seed:5 ~eager:true app))
      .Pipeline.overhead
  in
  Alcotest.(check bool) "eager fault cost >= CoW-based" true
    (eager.Capture.fault_cow_ms >= normal.Capture.fault_cow_ms)

let test_loader_collision_tracking () =
  let cap = Lazy.force fft_capture in
  (* our layout places app data far from the loader range *)
  Alcotest.(check int) "no collisions with this layout" 0
    (Replay.loader_collisions cap.Pipeline.snapshot)

(* ----------------- dirty-page verification (CoW replay) ------------- *)

module Trace = Repro_util.Trace

let test_dirty_scan_counter () =
  (* diff work must be proportional to the pages the replay dirtied, not
     to snapshot size: asserted through the verify.pages_scanned counter *)
  let cap = Lazy.force fft_capture in
  let dx = App.dexfile (fft ()) in
  let snap = cap.Pipeline.snapshot in
  Trace.enable ();
  Trace.reset ();
  let r = Replay.run dx snap Replay.Interpreter in
  let ctx = r.Replay.ctx in
  let mem = ctx.Vm.Exec_ctx.mem in
  let before = Trace.counter_value "verify.pages_scanned" in
  let diffs = Verify.diff_against_snapshot ctx snap in
  let scanned = Trace.counter_value "verify.pages_scanned" - before in
  let dirty =
    List.length (Mem.dirty_pages mem ~kind:Mem.Rheap)
    + List.length (Mem.dirty_pages mem ~kind:Mem.Rstatics)
  in
  let snapshot_pages =
    List.length snap.Snapshot.snap_pages + List.length snap.Snapshot.snap_common
  in
  Alcotest.(check int) "scanned exactly the dirty pages" dirty scanned;
  Alcotest.(check bool) "way below snapshot size" true
    (scanned < snapshot_pages / 4);
  Alcotest.(check int) "no full-scan fallback" 0
    (Trace.counter_value "verify.full_scans");
  (* dirtying one more page costs exactly one more scanned page *)
  let heap_map =
    List.find (fun m -> m.Mem.map_kind = Mem.Rheap) snap.Snapshot.snap_maps
  in
  let fresh_addr =
    heap_map.Mem.map_base + ((heap_map.Mem.map_npages - 1) * Mem.page_size)
  in
  Mem.write_int mem fresh_addr 1234;
  let before2 = Trace.counter_value "verify.pages_scanned" in
  ignore (Verify.diff_against_snapshot ctx snap);
  Alcotest.(check int) "one extra dirty page, one extra scan" (scanned + 1)
    (Trace.counter_value "verify.pages_scanned" - before2);
  Trace.disable ();
  Alcotest.(check bool) "same answer as the full scan" true
    (Verify.diff_against_snapshot_full ctx snap
     = List.merge compare [ (fresh_addr, 1234L) ] diffs)

let prop_dirty_diff_equals_full_scan =
  (* satellite (b): the dirty-page diff equals the old full scan on random
     post-replay write patterns (zero-frame pages, CoW pages, clean pages) *)
  QCheck.Test.make ~name:"dirty-page diff = full scan" ~count:20
    QCheck.(list_of_size Gen.(int_range 0 40)
              (triple (int_bound 299) (int_bound (Mem.words_per_page - 1)) int))
    (fun writes ->
       let cap = Lazy.force fft_capture in
       let dx = App.dexfile (fft ()) in
       let snap = cap.Pipeline.snapshot in
       let r = Replay.run dx snap Replay.Interpreter in
       let ctx = r.Replay.ctx in
       let mem = ctx.Vm.Exec_ctx.mem in
       let heap_map =
         List.find (fun m -> m.Mem.map_kind = Mem.Rheap) snap.Snapshot.snap_maps
       in
       List.iter
         (fun (page, word, v) ->
            Mem.write_int mem
              (heap_map.Mem.map_base + (page * Mem.page_size) + (word * 8))
              v)
         writes;
       let fast = Verify.diff_against_snapshot ctx snap in
       let full = Verify.diff_against_snapshot_full ctx snap in
       fast = full && Verify.diff_matches ctx snap full
       && not (Verify.diff_matches ctx snap ((0, 1L) :: full)))

let test_replay_isolated_from_online_memory () =
  (* replays rebuild memory from the snapshot: mutating the replayed heap
     twice gives identical results (no cross-replay leakage) *)
  let app = Option.get (App.find "BubbleSort") in
  let cap = capture_app app in
  let dx = App.dexfile app in
  let once () =
    match (Replay.run dx cap.Pipeline.snapshot Replay.Interpreter).Replay.outcome with
    | Replay.Finished (Some v, _) -> v
    | _ -> Alcotest.fail "replay failed"
  in
  Alcotest.(check bool) "sort twice, same answer" true
    (Vm.Value.equal (once ()) (once ()))

(* ------------------ verification edge cases (pinned) ----------------- *)

(* The verification map's return-value comparison is bit-exact on floats
   (Value.equal compares IEEE bits): NaNs are equal only with identical
   payloads, and negative zero differs from positive zero even though
   OCaml's (=) on floats conflates them.  Pin this — a candidate binary
   that "fixes" -0.0 to 0.0 must be rejected, not silently accepted. *)
let test_verify_float_edge_cases () =
  let eq a b = Vm.Value.equal (Vm.Value.Vfloat a) (Vm.Value.Vfloat b) in
  Alcotest.(check bool) "NaN = NaN (same payload)" true (eq Float.nan Float.nan);
  let other_bits = Int64.logxor (Int64.bits_of_float Float.nan) 2L in
  let other_nan = Int64.float_of_bits other_bits in
  Alcotest.(check bool) "other NaN is still a NaN" true (Float.is_nan other_nan);
  Alcotest.(check bool) "NaN payloads distinguished" false (eq Float.nan other_nan);
  Alcotest.(check bool) "-0.0 <> +0.0 under the verifier" false (eq (-0.0) 0.0);
  Alcotest.(check bool) "(=) would conflate the zeroes" true (-0.0 = 0.0);
  (* the bit-exactness survives the memory encoding used for write sets *)
  let mem = Mem.create () in
  Mem.map mem ~base:0x1000 ~npages:1 ~kind:Mem.Rheap ~name:"heap";
  let word v =
    Vm.Value.store mem 0x1000 v;
    Mem.read_word mem 0x1000
  in
  Alcotest.(check bool) "NaN payload survives a store" true
    (word (Vm.Value.Vfloat other_nan) = other_bits);
  Alcotest.(check bool) "-0.0 survives a store" true
    (word (Vm.Value.Vfloat (-0.0)) = Int64.min_int)

(* A context whose memory is a fresh clone of the snapshot template has an
   empty dirty-page set: the diff must be empty, must equal the full scan,
   and must match exactly the empty write set. *)
let test_verify_empty_dirty_page_set () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  let dx = App.dexfile (fft ()) in
  let mem = Mem.clone (Snapshot.template snap) in
  let heap_map =
    List.find (fun m -> m.Mem.map_kind = Mem.Rheap) snap.Snapshot.snap_maps
  in
  let statics_map =
    List.find (fun m -> m.Mem.map_kind = Mem.Rstatics) snap.Snapshot.snap_maps
  in
  let heap =
    Vm.Heap.restore mem ~base:heap_map.Mem.map_base
      ~npages:heap_map.Mem.map_npages ~next:snap.Snapshot.snap_heap_next
  in
  let ctx =
    Vm.Exec_ctx.create ~seed:0 ~fuel:1000 dx mem heap
      ~statics_base:statics_map.Mem.map_base
  in
  Alcotest.(check bool) "no dirty pages -> empty diff" true
    (Verify.diff_against_snapshot ctx snap = []);
  Alcotest.(check bool) "full scan agrees" true
    (Verify.diff_against_snapshot_full ctx snap = []);
  Alcotest.(check bool) "empty diff matches empty write set" true
    (Verify.diff_matches ctx snap []);
  Alcotest.(check bool) "empty diff rejects non-empty reference" false
    (Verify.diff_matches ctx snap [ (heap_map.Mem.map_base, 1L) ])

(* Conversely a real replay has a non-empty write set, and an empty
   reference map must reject it. *)
let test_verify_empty_write_set_rejects_writer () =
  let cap = Lazy.force fft_capture in
  let snap = cap.Pipeline.snapshot in
  let dx = App.dexfile (fft ()) in
  let r = Replay.run dx snap Replay.Interpreter in
  Alcotest.(check bool) "region writes are observed" true
    (Verify.diff_against_snapshot r.Replay.ctx snap <> []);
  Alcotest.(check bool) "writer cannot match the empty map" false
    (Verify.diff_matches r.Replay.ctx snap [])

(* ----------------------- cross-input corpus ------------------------- *)

(* One shared FFT corpus: primary + "size=6 non-pow2" (reference traps) +
   "nan bias" (reference finishes with a different map). *)
let fft_corpus =
  lazy (Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 (fft ())))

let test_corpus_structure () =
  let co = Lazy.force fft_corpus in
  let labels =
    List.map (fun ce -> ce.Pipeline.ce_input.App.in_label) co.Pipeline.co_entries
  in
  Alcotest.(check (list string)) "adversarial edges in corpus order"
    [ "size=6 non-pow2 (kernel traps)"; "nan bias" ] labels;
  (match co.Pipeline.co_entries with
   | [ trap; nan_entry ] ->
     Alcotest.(check bool) "size=6 reference traps" true
       (match trap.Pipeline.ce_reference with
        | Verify.Ref_crash _ -> true
        | Verify.Ref_map _ -> false);
     Alcotest.(check bool) "nan-bias reference finishes" true
       (match nan_entry.Pipeline.ce_reference with
        | Verify.Ref_map _ -> true
        | Verify.Ref_crash _ -> false)
   | _ -> Alcotest.fail "expected exactly two corpus entries")

(* Verification maps from two different inputs must never be conflated:
   checking a binary against the reference of input j <> i fails loudly
   (a non-Passed verdict), never silently passes. *)
let test_corpus_maps_never_conflated () =
  let co = Lazy.force fft_corpus in
  let app = fft () in
  let dx = App.dexfile app in
  let android = Repro_lir.Blockexec.load (Pipeline.android_binary_for app) in
  let primary_snap = co.Pipeline.co_primary.Pipeline.snapshot in
  let primary_map = Verify.collect dx primary_snap in
  let trap, nan_entry =
    match co.Pipeline.co_entries with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected exactly two corpus entries"
  in
  (* sanity: the correct binary passes every (snapshot, reference) pair *)
  List.iter
    (fun ce ->
       match
         Verify.check dx ce.Pipeline.ce_snapshot ce.Pipeline.ce_reference
           android
       with
       | Verify.Passed _ -> ()
       | _ -> Alcotest.fail "android rejected on its own reference")
    co.Pipeline.co_entries;
  (* crash reference paired with the primary (non-trapping) snapshot: the
     binary finishes where the reference crashed -> Wrong_output *)
  Alcotest.(check bool) "crash reference on wrong input fails loudly" true
    (match
       Verify.check dx primary_snap trap.Pipeline.ce_reference android
     with
     | Verify.Wrong_output -> true
     | _ -> false);
  (* primary map paired with the nan-bias snapshot: different writes *)
  Alcotest.(check bool) "primary map on nan input fails loudly" true
    (match
       Verify.check dx nan_entry.Pipeline.ce_snapshot primary_map android
     with
     | Verify.Wrong_output -> true
     | _ -> false);
  (* finishing map paired with the trapping snapshot: the binary crashes *)
  Alcotest.(check bool) "finishing map on trap input fails loudly" true
    (match
       Verify.check dx trap.Pipeline.ce_snapshot
         nan_entry.Pipeline.ce_reference android
     with
     | Verify.Crashed _ -> true
     | _ -> false)

(* Same seed => byte-identical corpus, twice over: the input plan is
   reproducible (and a prefix of any larger plan), and re-capturing
   produces structurally identical references. *)
let prop_corpus_input_plan_deterministic =
  QCheck.Test.make ~name:"same seed => identical input plan" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 1 9))
    (fun (seed, k) ->
       List.for_all
         (fun name ->
            let app = Option.get (App.find name) in
            let a = App.input_variants app ~seed ~k in
            let b = App.input_variants app ~seed ~k in
            let bigger = App.input_variants app ~seed ~k:(k + 3) in
            let rec prefix xs ys =
              match xs, ys with
              | [], _ -> true
              | x :: xs, y :: ys -> x = y && prefix xs ys
              | _ :: _, [] -> false
            in
            a = b && prefix a bigger)
         [ "FFT"; "SOR"; "MonteCarlo"; "Sparse matmult"; "LU" ])

let test_corpus_recapture_byte_identical () =
  let co1 = Lazy.force fft_corpus in
  let co2 = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 (fft ())) in
  let refs co = List.map (fun ce -> ce.Pipeline.ce_reference) co.Pipeline.co_entries in
  (* compare with [compare]: the nan-bias map contains NaN return values,
     which (=) would spuriously distinguish *)
  Alcotest.(check bool) "identical references" true
    (compare (refs co1) (refs co2) = 0);
  Alcotest.(check bool) "identical page counts" true
    (List.map
       (fun ce -> List.length ce.Pipeline.ce_snapshot.Snapshot.snap_pages)
       co1.Pipeline.co_entries
     = List.map
         (fun ce -> List.length ce.Pipeline.ce_snapshot.Snapshot.snap_pages)
         co2.Pipeline.co_entries)

(* K distinct inputs yield at least two distinct verification references
   for every Scimark app: the corpus actually widens the net everywhere. *)
let test_corpus_distinct_references_per_scimark_app () =
  List.iter
    (fun name ->
       let app = Option.get (App.find name) in
       let co = Option.get (Pipeline.capture_corpus ~seed:7 ~k:4 app) in
       let dx = App.dexfile app in
       let primary = Verify.collect dx co.Pipeline.co_primary.Pipeline.snapshot in
       let all =
         primary
         :: List.map (fun ce -> ce.Pipeline.ce_reference) co.Pipeline.co_entries
       in
       let distinct = List.sort_uniq compare all in
       Alcotest.(check bool)
         (name ^ ": >= 2 distinct references") true
         (List.length distinct >= 2))
    [ "FFT"; "SOR"; "MonteCarlo"; "Sparse matmult"; "LU" ]

let material_corpus =
  lazy
    (Option.get
       (Pipeline.capture_corpus ~seed:7 ~k:4
          (Option.get (App.find "MaterialLife"))))

let corpus_snapshots (co : Pipeline.corpus) =
  co.Pipeline.co_primary.Pipeline.snapshot
  :: List.map (fun ce -> ce.Pipeline.ce_snapshot) co.Pipeline.co_entries

(* One capture per snapshot: a recursive hot region is entered again
   while its capture runs, and those entries run uncaptured.  A K=4
   corpus is four captures, as four [capture] spans. *)
let test_corpus_captures_never_nest () =
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.reset (); Trace.disable ())
  @@ fun () ->
  List.iter
    (fun name ->
       Trace.reset ();
       let co =
         Option.get
           (Pipeline.capture_corpus ~seed:7 ~k:4 (Option.get (App.find name)))
       in
       Alcotest.(check int) (name ^ ": four snapshots") 4
         (List.length (corpus_snapshots co));
       Alcotest.(check int) (name ^ ": four capture spans") 4
         (List.length
            (List.filter
               (fun ev ->
                  ev.Trace.ev_name = "capture" && ev.Trace.ev_ph = Trace.B)
               (Trace.events ()))))
    [ "Fibonacci.recv"; "Brainstonz" ]

(* Trace the capture of FFT's K-input corpus and the verification of [n]
   random genomes on two domains: the corpus's snapshot count, then the
   template builds and corpus checks, the capture's own replays
   included. *)
let verify_fft_corpus ~seed ~k ~n =
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let app = fft () in
  let co = Option.get (Pipeline.capture_corpus ~seed ~k app) in
  let env =
    Pipeline.make_eval_env ~corpus:co.Pipeline.co_entries app
      co.Pipeline.co_primary
  in
  let rng = Repro_util.Rng.create 17 in
  ignore
    (Evalpool.evaluate_batch
       (Pipeline.make_core_pool ~jobs:2 ~cache:false env)
       (Array.init n (fun i -> (i, Genome.random rng))));
  ( List.length (corpus_snapshots co),
    Trace.counter_value "replay.template_builds",
    Trace.counter_value "verify.corpus_checks" )

(* Verifying a batch on two domains builds each snapshot's template once,
   however many domains replay it: FFT's K=3 corpus holds three
   snapshots, so three builds. *)
let test_one_template_per_snapshot () =
  let snapshots, builds, _ = verify_fft_corpus ~seed:5 ~k:3 ~n:12 in
  Alcotest.(check int) "one build per snapshot" snapshots builds

(* Each snapshot keeps its own template, however many a corpus holds:
   FFT's K=13 corpus builds thirteen, where a memo capped below thirteen
   entries rebuilds on almost every corpus check. *)
let test_thirteen_snapshots_thirteen_templates () =
  let snapshots, builds, checks = verify_fft_corpus ~seed:7 ~k:13 ~n:6 in
  Alcotest.(check int) "thirteen snapshots" 13 snapshots;
  Alcotest.(check bool) "corpus checks ran" true (checks >= 13);
  Alcotest.(check int) "one build per snapshot" 13 builds

(* Every capture of an app holds the same boot-common pages, whatever
   the input: one APP/boot-common blob per app relies on it.  In memory
   they are one boot image: each page is physically the same bytes in the
   primary, in every corpus entry, and in the templates of every capture
   built on two pool domains. *)
let test_one_boot_image_per_app () =
  let pool = Repro_search.Domainpool.create ~workers:2 in
  Fun.protect ~finally:(fun () -> Repro_search.Domainpool.shutdown pool)
  @@ fun () ->
  List.iter
    (fun (co : Pipeline.corpus) ->
       let name = co.Pipeline.co_app.App.name in
       let common = co.Pipeline.co_primary.Pipeline.snapshot.Snapshot.snap_common in
       Alcotest.(check bool) (name ^ ": corpus entries captured") true
         (co.Pipeline.co_entries <> []);
       let same_frames (pages : Snapshot.page_image list) =
         List.length pages = List.length common
         && List.for_all2
              (fun (a : Snapshot.page_image) (b : Snapshot.page_image) ->
                 a.Snapshot.pg_index = b.Snapshot.pg_index
                 && a.Snapshot.pg_data == b.Snapshot.pg_data)
              pages common
       in
       List.iter
         (fun ce ->
            Alcotest.(check bool)
              (Printf.sprintf "%s, %s: the primary's boot-common frames" name
                 ce.Pipeline.ce_input.App.in_label)
              true
              (same_frames ce.Pipeline.ce_snapshot.Snapshot.snap_common))
         co.Pipeline.co_entries;
       let shared = Array.make 2 false in
       Repro_search.Domainpool.run pool (fun wid ->
           shared.(wid) <-
             List.for_all
               (fun snap ->
                  let tpl = Snapshot.template snap in
                  List.for_all
                    (fun (pg : Snapshot.page_image) ->
                       match Mem.page_bytes tpl ~page:pg.Snapshot.pg_index with
                       | Some data -> data == pg.Snapshot.pg_data
                       | None -> false)
                    common)
               (corpus_snapshots co));
       Array.iteri
         (fun wid ok ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: templates on worker %d share the frames"
                 name wid)
              true ok)
         shared)
    [ Lazy.force fft_corpus; Lazy.force material_corpus ]

(* No snapshot or template holds its own copy of the boot image:
   MaterialLife's K=4 corpus and the templates of its four captures reach
   less than twice the image's own words.  A copy per snapshot and per
   template would be eight more images. *)
let test_corpus_and_templates_share_the_image () =
  let co = Lazy.force material_corpus in
  let templates = List.map Snapshot.template (corpus_snapshots co) in
  Alcotest.(check int) "four captures" 4 (List.length templates);
  let reached = Obj.reachable_words (Obj.repr (co, templates)) in
  let image = Obj.reachable_words (Obj.repr Vm.Image.boot_image) in
  Alcotest.(check bool)
    (Printf.sprintf "corpus + templates: %d words < 2 x image %d" reached image)
    true
    (reached < 2 * image)

(* A corpus captured with a store attached: each capture spools its own
   program blob, so every snapshot's template, rebuilt from the store,
   holds that snapshot's captured words, and its boot-common pages share
   the boot image's frames. *)
let test_store_backed_corpus_templates () =
  with_store (fun storage ->
      let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 (fft ())) in
      let snaps =
        co.Pipeline.co_primary.Pipeline.snapshot
        :: List.map (fun ce -> ce.Pipeline.ce_snapshot) co.Pipeline.co_entries
      in
      let labels = List.map Snapshot.program_label snaps in
      Alcotest.(check int) "three distinct program blobs" 3
        (List.length (List.sort_uniq String.compare labels));
      List.iter
        (fun label ->
           Alcotest.(check bool) (label ^ " in the store") true
             (Storage.contains storage ~label))
        labels;
      Snapshot.invalidate_templates ();
      List.iter
        (fun snap ->
           let tpl = Snapshot.template snap in
           holds "store-backed template" snap tpl;
           Alcotest.(check bool) "store-backed template shares the boot image"
             true
             (List.for_all
                (fun (pg : Snapshot.page_image) ->
                   match Mem.page_bytes tpl ~page:pg.Snapshot.pg_index with
                   | Some data -> data == pg.Snapshot.pg_data
                   | None -> false)
                snap.Snapshot.snap_common))
        snaps)

(* The store file [repro storage --save] writes for FFT and LU at seed 7,
   byte for byte: the page codec, the frame order and the blob names
   (program labels digest each page's words) all show in its MD5. *)
let test_saved_store_bytes_pinned () =
  with_store (fun storage ->
      List.iter
        (fun name ->
           ignore
             (Option.get
                (Pipeline.capture_once ~seed:7 (Option.get (App.find name)))))
        [ "FFT"; "LU" ];
      let file = Filename.temp_file "repro-store" ".bin" in
      Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
      Storage.save storage file;
      Alcotest.(check string) "saved store MD5"
        "ee73762607bf4eef3b7a8917035916fb"
        (Digest.to_hex (Digest.file file)))

(* The --store contract with a corpus: the same search with and without
   the store attached. *)
let test_store_backed_corpus_search () =
  let digest () =
    let cfg =
      { Repro_search.Ga.quick_config with
        population = 8; generations = 3; max_identical = 30 }
    in
    let _, session =
      Option.get
        (Pipeline.start ~quarantine:(Pipeline.create_quarantine_log ())
           (Pipeline.request ~seed:5 ~cfg ~corpus_k:3 (fft ())))
    in
    Pipeline.search_digest (Pipeline.run_session session)
  in
  let plain = digest () in
  Alcotest.(check string) "same search digest with the store" plain
    (with_store (fun _ -> digest ()))

let () =
  Alcotest.run "capture"
    [ ("capture",
       [ Alcotest.test_case "snapshot contents" `Quick test_capture_produces_snapshot;
         Alcotest.test_case "overhead fields" `Quick test_capture_overhead_positive;
         Alcotest.test_case "charges online time" `Quick test_capture_charges_online_time;
         Alcotest.test_case "eager ablation" `Quick test_eager_mode_costs_more ]);
      ("replay",
       [ Alcotest.test_case "matches original" `Quick test_replay_matches_original_region;
         Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
         Alcotest.test_case "code versions agree" `Quick test_replay_code_versions_agree;
         Alcotest.test_case "loader collisions" `Quick test_loader_collision_tracking;
         Alcotest.test_case "isolated memory" `Quick test_replay_isolated_from_online_memory ]);
      ("verify",
       [ Alcotest.test_case "accepts safe" `Quick test_verification_map_accepts_safe;
         Alcotest.test_case "rejects fast-math" `Quick test_verification_map_rejects_fast_math;
         Alcotest.test_case "flags wrong output" `Quick test_verify_flags_wrong_output;
         Alcotest.test_case "flags crash" `Quick test_verify_flags_crash;
         Alcotest.test_case "flags hang" `Quick test_verify_flags_hang;
         Alcotest.test_case "float edge cases" `Quick test_verify_float_edge_cases;
         Alcotest.test_case "empty dirty-page set" `Quick test_verify_empty_dirty_page_set;
         Alcotest.test_case "empty write set rejects writer" `Quick
           test_verify_empty_write_set_rejects_writer;
         Alcotest.test_case "type profile" `Quick test_typeprof_collected ]);
      ("dirty-scan",
       [ Alcotest.test_case "pages_scanned counter" `Quick test_dirty_scan_counter;
         QCheck_alcotest.to_alcotest prop_dirty_diff_equals_full_scan ]);
      ("corpus",
       [ Alcotest.test_case "structure" `Quick test_corpus_structure;
         Alcotest.test_case "maps never conflated" `Quick
           test_corpus_maps_never_conflated;
         QCheck_alcotest.to_alcotest prop_corpus_input_plan_deterministic;
         Alcotest.test_case "recapture byte-identical" `Quick
           test_corpus_recapture_byte_identical;
         Alcotest.test_case "distinct references per app" `Quick
           test_corpus_distinct_references_per_scimark_app;
         Alcotest.test_case "one boot image per app" `Quick
           test_one_boot_image_per_app;
         Alcotest.test_case "corpus and templates share the image" `Quick
           test_corpus_and_templates_share_the_image;
         Alcotest.test_case "captures never nest" `Quick
           test_corpus_captures_never_nest ]);
      ("storage",
       [ Alcotest.test_case "accounting" `Quick test_storage_accounting;
         Alcotest.test_case "saved store bytes pinned" `Quick
           test_saved_store_bytes_pinned;
         Alcotest.test_case "store-backed corpus templates" `Quick
           test_store_backed_corpus_templates;
         Alcotest.test_case "store-backed corpus search" `Quick
           test_store_backed_corpus_search;
         Alcotest.test_case "store-backed template" `Quick
           test_store_backed_template_equivalent;
         Alcotest.test_case "corruption quarantines" `Quick
           test_store_corruption_quarantines_not_crashes;
         Alcotest.test_case "invalidation reaches pool workers" `Quick
           test_invalidation_reaches_pool_workers ]);
      ("memo",
       [ Alcotest.test_case "a dead snapshot frees its template" `Quick
           test_dead_snapshot_frees_template;
         Alcotest.test_case "one template per snapshot" `Quick
           test_one_template_per_snapshot;
         Alcotest.test_case "thirteen snapshots, thirteen templates" `Quick
           test_thirteen_snapshots_thirteen_templates;
         Alcotest.test_case "template holds the captured words" `Quick
           test_template_holds_captured_words ]) ]
