(* The per-layer ledger of a traced round.  Every number comes from the
   program's own spans and counters (read back through Trace.events and
   Trace.counter_value), from the harness's "bench:*" spans around the
   public calls it makes, or from values the harness observed directly
   (journal sizes, the capture pause model, scheduler fairness).  Names
   follow the module that owns the work; README.md maps each one to the
   end-to-end metric it should move. *)

module Trace = Repro_util.Trace
module Stats = Repro_util.Stats

let ms s = s *. 1e3

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let metrics ~events ~jobs ~notes ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~overhead =
  let spans = Perfkit.spans events in
  let durs name =
    List.filter_map
      (fun s -> if String.equal s.Perfkit.sp_name name then Some s.Perfkit.sp_dur else None)
      spans
  in
  let total name = List.fold_left ( +. ) 0.0 (durs name) in
  let self name =
    List.fold_left
      (fun acc s ->
         if String.equal s.Perfkit.sp_name name then acc +. s.Perfkit.sp_self else acc)
      0.0 spans
  in
  let total_prefix prefix =
    List.fold_left
      (fun acc s ->
         if String.starts_with ~prefix s.Perfkit.sp_name then acc +. s.Perfkit.sp_dur
         else acc)
      0.0 spans
  in
  let c = Trace.counter_value in
  let batches = durs "evalpool:batch" in
  let batch_total = total "evalpool:batch" in
  let named_passes = [ "licm"; "dce"; "simplifycfg" ] in
  let pass name = total ("pass:" ^ name) in
  let word_mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let note name = Option.value (List.assoc_opt name notes) ~default:0.0 in
  [ ("pipeline.capture_ms", ms (total "capture_corpus"));
    ("pipeline.env_ms", ms (total "make_eval_env"));
    ("serve.submit_ms", ms (total "bench:serve_submit"));
    ("vm.online_run_ms", ms (total "online_run"));
    ("pipeline.finish_ms",
     ms (total "bench:final_binary" +. total "bench:measure_speedups"));
    ("search.batch_ms_p50",
     if batches = [] then 0.0 else ms (Stats.median (Array.of_list batches)));
    ("search.batch_ms_max", ms (List.fold_left Float.max 0.0 batches));
    ("search.batch_samples", float_of_int (List.length batches));
    ("search.worker_busy_frac",
     if batch_total = 0.0 then 0.0
     else total "evalpool:worker" /. (float_of_int jobs *. batch_total));
    ("search.step_overhead_ms",
     ms
       (total "bench:search_step" +. total "bench:serve_drive"
        +. total "bench:evaluate_batch" -. batch_total));
    ("search.genome_hit_frac", ratio (c "evalpool.genome_hits") (c "evalpool.tasks"));
    ("search.key_hit_frac",
     ratio (c "evalpool.key_hits") (c "evalpool.key_hits" + c "evalpool.verifies"));
    ("lir.stagecache.genes_reused_frac",
     ratio (c "stagecache.genes_reused")
       (c "stagecache.genes_reused" + c "stagecache.genes_run"));
    ("lir.stagecache.binary_hit_frac",
     ratio (c "stagecache.binary_hits")
       (c "stagecache.binary_hits" + c "stagecache.binary_misses"));
    ("lir.compile_ms", ms (total "compile:llvm"));
    ("lir.lower_ms", ms (self "compile:llvm"));
    ("lir.pass.licm_ms", ms (pass "licm"));
    ("lir.pass.dce_ms", ms (pass "dce"));
    ("lir.pass.simplifycfg_ms", ms (pass "simplifycfg"));
    ("lir.pass.other_ms",
     ms
       (total_prefix "pass:"
        -. List.fold_left (fun acc p -> acc +. pass p) 0.0 named_passes));
    ("lir.stagecache.evictions", float_of_int (c "stagecache.evictions"));
    ("os.peak_rss_mb", note "os.peak_rss_mb");
    ("gc.top_heap_mb", word_mb (float_of_int gc1.Gc.top_heap_words));
    ("gc.major_collections",
     float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.minor_gb",
     (gc1.Gc.minor_words -. gc0.Gc.minor_words)
     *. float_of_int (Sys.word_size / 8) /. 1e9);
    ("capture.verify_ms", ms (total "verify" +. total "verify:crash-ref"));
    ("capture.replay_ms", ms (total_prefix "replay:"));
    ("capture.template_ms", ms (total "snapshot:build_template"));
    ("capture.template_builds", float_of_int (c "replay.template_builds"));
    ("lir.blockplan.builds", float_of_int (c "blockexec.plan_builds"));
    ("lir.blockplan.cache_hit_frac",
     ratio (c "blockexec.plan_cache_hits")
       (c "blockexec.plan_cache_hits" + c "blockexec.plan_builds"));
    ("os.mem.clone_pages", float_of_int (c "mem.clone_pages"));
    ("os.mem.cow_pages", float_of_int (c "mem.cow_pages"));
    ("capture.corpus_kills", float_of_int (c "verify.corpus_kills"));
    ("capture.corpus_checks", float_of_int (c "verify.corpus_checks"));
    ("capture.pause_ms_model", note "capture.pause_ms_model");
    ("os.storage.bytes_written", float_of_int (c "storage.bytes_written"));
    ("checkpoint.saves", float_of_int (c "ckpt.saves"));
    ("checkpoint.journal_bytes", note "checkpoint.journal_bytes");
    ("checkpoint.load_ms", ms (total "bench:checkpoint_load"));
    ("checkpoint.replayed_batches", float_of_int (c "ckpt.batches_replayed"));
    ("serve.fairness_spread", note "serve.fairness_spread");
    ("search.evals", float_of_int (c "evalpool.tasks"));
    ("lir.compile_work", float_of_int (c "compile.work"));
    ("tracing.overhead_frac", overhead) ]
