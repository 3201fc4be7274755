module App = Repro_apps.Registry
module B = Repro_dex.Bytecode
module Ctx = Repro_vm.Exec_ctx
module Interp = Repro_vm.Interp
module Cost = Repro_vm.Cost
module Value = Repro_vm.Value
module Binary = Repro_lir.Binary
module Compile = Repro_lir.Compile
module Blockexec = Repro_lir.Blockexec
module Exec = Repro_lir.Exec
module Capture = Repro_capture.Capture
module Snapshot = Repro_capture.Snapshot
module Verify = Repro_capture.Verify
module Typeprof = Repro_capture.Typeprof
module Profile = Repro_profiler.Profile
module Regions = Repro_profiler.Regions
module Genome = Repro_search.Genome
module Ga = Repro_search.Ga
module Evalpool = Repro_search.Evalpool
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Storage = Repro_os.Storage
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults

type online = {
  ctx : Ctx.t;
  profile : Profile.t;
  cycles : int;
  ret : Value.t option;
}

let all_mids dx = Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)

(* Keyed on the source text, like [App.dexfile]: an app that reuses a
   registry name with other code gets its own binary. *)
let android_cache : (string, Binary.t) Hashtbl.t = Hashtbl.create 32

let android_binary_for app =
  match Hashtbl.find_opt android_cache app.App.source with
  | Some b -> b
  | None ->
    let dx = App.dexfile app in
    let b = Compile.android_binary dx (all_mids dx) in
    Hashtbl.add android_cache app.App.source b;
    b

let online_run ?(seed = 42) ?binary ?(sample_period = 20_000) app =
  Trace.span ~cat:"pipeline" ~args:[ ("app", app.App.name) ] "online_run"
  @@ fun () ->
  let ctx = App.build_ctx ~seed app in
  ctx.Ctx.sample_period <- sample_period;
  ctx.Ctx.next_sample <- sample_period;
  (match binary with
   | Some b -> Exec.install ctx b
   | None -> Exec.install ctx (android_binary_for app));
  let ret = Interp.run_main ctx in
  { ctx; profile = Profile.of_ctx ctx; cycles = ctx.Ctx.cycles; ret }

let hot_region_of app online =
  Regions.hot_region (App.dexfile app) online.profile

let region_methods app mid = Regions.compilable_region (App.dexfile app) mid

type captured = {
  snapshot : Snapshot.t;
  overhead : Capture.overhead;
  hot_mid : int;
  capture_cycles : int;
}

(* Run [ctx]'s app online under the Android binary and capture one entry
   into [hot_mid], counted over every entry (recursive ones included), so
   exactly one capture runs.  The primary captures the second entry (warm
   state, after first-call initialization) and runs to completion.  A
   [variant] captures the first entry (adversarial inputs may trap before
   a second entry happens), harvests even when the region traps (the
   forked child's pages predate the region), and stops the online run
   right after: variants exist only to be replayed. *)
let capture_entry ?eager ~variant app ctx ~hot_mid =
  let exception Captured_stop in
  let nth = if variant then 1 else 2 in
  let base = Exec.dispatcher (android_binary_for app) in
  let result = ref None in
  let entries = ref 0 in
  Ctx.set_dispatch ctx (fun ctx' mid args ->
      if mid = hot_mid then incr entries;
      if mid <> hot_mid || !entries <> nth then base ctx' mid args
      else begin
        let r =
          Capture.capture_region ~app:app.App.name ~harvest_on_exn:variant
            ?eager ctx' ~mid ~args
            ~run:(fun () -> base ctx' mid args)
        in
        result := Some r;
        if variant then raise_notrace Captured_stop;
        r.Capture.region_ret
      end);
  (* a variant's run ends in [Captured_stop], and its input may
     legitimately crash the driver before the region: only a completed
     capture matters there *)
  (try ignore (Interp.run_main ctx) with _ when variant -> ());
  !result

let capture_once ?(seed = 42) ?eager app =
  Trace.span ~cat:"pipeline" ~args:[ ("app", app.App.name) ] "capture_once"
  @@ fun () ->
  (* a first run finds the hot region; the capture run targets it *)
  let scout = online_run ~seed app in
  match hot_region_of app scout with
  | None -> None
  | Some hot_mid ->
    let ctx = App.build_ctx ~seed app in
    capture_entry ?eager ~variant:false app ctx ~hot_mid
    |> Option.map (fun r ->
        { snapshot = r.Capture.snapshot;
          overhead = r.Capture.overhead;
          hot_mid;
          capture_cycles = ctx.Ctx.cycles })

(* ------------------------- multi-input corpus ------------------------ *)

type corpus_entry = {
  ce_input : App.input;
  ce_snapshot : Snapshot.t;
  ce_reference : Verify.reference;
  ce_overhead : Capture.overhead;
}

type corpus = {
  co_app : App.t;
  co_primary : captured;
  co_entries : corpus_entry list;
}

(* One secondary capture: re-run the app online with the variant input
   poked in and capture the first entry into the primary's hot region. *)
let capture_variant app ~seed ~hot_mid input =
  Trace.span ~cat:"pipeline"
    ~args:[ ("app", app.App.name); ("input", input.App.in_label) ]
    "capture_variant"
  @@ fun () ->
  let ctx = App.build_ctx ~seed ~input app in
  match capture_entry ~variant:true app ctx ~hot_mid with
  | None -> None
  | Some r ->
    (match Verify.collect (App.dexfile app) r.Capture.snapshot with
     | reference ->
       Trace.incr "corpus.captures";
       Some
         { ce_input = input;
           ce_snapshot = r.Capture.snapshot;
           ce_reference = reference;
           ce_overhead = r.Capture.overhead }
     | exception Failure _ -> None)

let capture_corpus ?(seed = 42) ~k app =
  Trace.span ~cat:"pipeline"
    ~args:[ ("app", app.App.name); ("k", string_of_int k) ]
    "capture_corpus"
  @@ fun () ->
  match capture_once ~seed app with
  | None -> None
  | Some primary ->
    Trace.incr "corpus.captures";
    let variants =
      match App.input_variants app ~seed ~k with
      | [] -> []
      | _default :: rest -> rest
    in
    let entries =
      List.filter_map
        (capture_variant app ~seed ~hot_mid:primary.hot_mid)
        variants
    in
    Some { co_app = app; co_primary = primary; co_entries = entries }

(* ----------------------- quarantine accounting ---------------------- *)

(* Record of binaries (and persisted artifacts) discarded as
   untrustworthy.  The verify stage runs on worker domains, so a log is
   mutex-protected.  Logs are per-run values: the serve scheduler gives
   every tenant its own, so one tenant's entries (and resets) can never
   leak into another's report; the process-wide default log keeps the
   one-shot CLI behaviour.  Trace counters mirror the log
   ([verify.quarantined], [verify.retried]) but the log itself is always
   on — the CLI's quarantine report must not require --trace. *)
type quarantine_entry = {
  q_binary : string;
  q_reason : string;
  q_count : int;
}

type quarantine_log = {
  ql_mutex : Mutex.t;
  ql_tbl : (string, string * int) Hashtbl.t;
}

let create_quarantine_log () =
  { ql_mutex = Mutex.create (); ql_tbl = Hashtbl.create 16 }

let global_quarantine = create_quarantine_log ()

let reset_quarantine ?(log = global_quarantine) () =
  Mutex.protect log.ql_mutex (fun () -> Hashtbl.reset log.ql_tbl)

let record_quarantine ?(log = global_quarantine) ~key ~reason () =
  Mutex.protect log.ql_mutex (fun () ->
      match Hashtbl.find_opt log.ql_tbl key with
      | Some (r, n) -> Hashtbl.replace log.ql_tbl key (r, n + 1)
      | None -> Hashtbl.add log.ql_tbl key (reason, 1));
  Trace.incr "verify.quarantined"

let quarantine_summary ?(log = global_quarantine) () =
  Mutex.protect log.ql_mutex (fun () ->
      Hashtbl.fold
        (fun key (reason, n) acc ->
           { q_binary = key; q_reason = reason; q_count = n } :: acc)
        log.ql_tbl [])
  |> List.sort (fun a b -> String.compare a.q_binary b.q_binary)

(* Raw (key, reason, count) view for checkpoint persistence. *)
let quarantine_entries log =
  List.map
    (fun e -> (e.q_binary, e.q_reason, e.q_count))
    (quarantine_summary ~log ())

let restore_quarantine log entries =
  Mutex.protect log.ql_mutex (fun () ->
      List.iter
        (fun (key, reason, count) ->
           Hashtbl.replace log.ql_tbl key (reason, count))
        entries)

type evaluation_env = {
  dx : B.dexfile;
  app : App.t;
  capture : captured;
  vmap : Verify.reference;
  typeprof : Typeprof.t;
  region : int list;
  frontend : Compile.frontend;
  corpus : corpus_entry list;
  android_region_ms : float;
  o3_region_ms : float;
  measure_seed : int;
  quarantine : quarantine_log;
}

let replays_per_eval = 10

(* Offline replays run on an idle device with pinned frequency (§4): the
   remaining noise is small and multiplicative. *)
let noise_sigma = 0.012

(* Every measurement draws its noise from a stream derived from
   [(measure_seed, ev_index)] alone, so measured times depend only on the
   evaluation's identity — not on worker count, batching, or cache state.
   Negative indices are reserved for the fixed baseline measurements. *)
let android_noise_index = -1
let o3_noise_index = -2
let replay_ms_noise_index = -3

let noise_times env ~ev_index cycles =
  let rng = Rng.of_pair env.measure_seed ev_index in
  let ms =
    float_of_int cycles /. float_of_int Cost.default.Cost.cycles_per_ms
  in
  Array.init replays_per_eval (fun _ ->
      ms *. Rng.lognormal rng ~mu:0.0 ~sigma:noise_sigma)

(* Mean verified replay time of [binary] on the primary capture, MAD
   filtered, its noise drawn at [noise_index]; [None] when the binary
   fails verification. *)
let mean_replay_ms env ~noise_index binary =
  match
    Verify.check env.dx env.capture.snapshot env.vmap (Blockexec.load binary)
  with
  | Verify.Passed cycles ->
    Some (Stats.robust_mean (noise_times env ~ev_index:noise_index cycles))
  | Verify.Wrong_output | Verify.Crashed _ | Verify.Hung -> None

let replay_ms env binary =
  mean_replay_ms env ~noise_index:replay_ms_noise_index binary

let region_binary_android env =
  let b = android_binary_for env.app in
  Binary.create (List.filter_map (Binary.find b) env.region)

let make_eval_env ?(seed = 1234) ?(corpus = [])
    ?(quarantine = global_quarantine) app capture =
  Trace.span ~cat:"pipeline" ~args:[ ("app", app.App.name) ] "make_eval_env"
  @@ fun () ->
  let dx = App.dexfile app in
  let typeprof = Typeprof.create () in
  (* interpreted replay: verification map + dispatch-type profile (§3.4) *)
  let vmap =
    match
      Verify.collect
        ~record_vcall:(fun site cid -> Typeprof.record typeprof site cid)
        dx capture.snapshot
    with
    | Verify.Ref_map _ as vmap -> vmap
    | Verify.Ref_crash msg -> failwith ("interpreted replay crashed: " ^ msg)
  in
  let region = Regions.compilable_region dx capture.hot_mid in
  (* The genome-independent front-end, hoisted: one template per (app,
     capture, profile), content-keyed so independent environments with the
     same profile share stage-cache entries, and prewarmed over the region
     so search-time lookups are read-mostly. *)
  let frontend =
    Compile.frontend
      ~profile:(Typeprof.digest typeprof, Typeprof.lookup typeprof)
      ~prewarm:region dx
  in
  let env0 =
    { dx; app; capture; vmap; typeprof; region; frontend; corpus;
      android_region_ms = nan; o3_region_ms = nan; measure_seed = seed;
      quarantine }
  in
  let ms_of_binary ~noise_index binary =
    Option.value ~default:nan (mean_replay_ms env0 ~noise_index binary)
  in
  let android_ms =
    ms_of_binary ~noise_index:android_noise_index (region_binary_android env0)
  in
  let o3 =
    match Compile.llvm_binary frontend Repro_lir.Pipelines.o3 region with
    | b -> ms_of_binary ~noise_index:o3_noise_index b
    | exception (Compile.Compile_error _ | Compile.Compile_timeout) -> nan
  in
  { env0 with android_region_ms = android_ms; o3_region_ms = o3 }

(* The binary's content digest: the Evalpool binary memo's key, so an
   identical binary is verified (and planned) once per pool. *)
let binary_key = Binary.digest

(* The deterministic part of one evaluation: everything except the
   synthesized measurement noise.  This is what Evalpool memoizes — two
   genomes (or two cache states) producing the same core always yield the
   same final outcome once [outcome_of_core] re-synthesizes the times from
   the evaluation index.  The type lives in [Checkpoint], whose journal
   records it. *)
type eval_core = Checkpoint.core =
  | Core_measured of { cycles : int; size : int; key : string }
  | Core_compile_failed of string
  | Core_compile_timeout
  | Core_crashed of string
  | Core_hung
  | Core_wrong_output
  | Core_quarantined of string

let compile_core env genome =
  match
    Compile.llvm_binary env.frontend (Genome.to_spec genome) env.region
  with
  | binary -> Ok binary
  | exception Compile.Compile_error msg -> Error (Core_compile_failed msg)
  | exception Compile.Compile_timeout -> Error Core_compile_timeout

let reason_of_check = function
  | Verify.Passed _ -> "passed"
  | Verify.Wrong_output -> "wrong output"
  | Verify.Crashed msg -> "crashed: " ^ msg
  | Verify.Hung -> "hung"

let check_corpus ?site env loaded =
  Verify.check_corpus ?site env.dx env.capture.snapshot env.vmap
    (List.map (fun ce -> (ce.ce_snapshot, ce.ce_reference)) env.corpus)
    loaded

let verify_core env binary =
  let measured cycles =
    Core_measured
      { cycles; size = binary.Binary.size; key = binary_key binary }
  in
  (* one load per evaluation: every replay below, retry included, shares
     the block plan the first fused replay builds *)
  let loaded = Blockexec.load binary in
  if not (Faults.active ()) then
    (* Fault injection off (the normal pipeline): single attempt, and a
       failed verification keeps its precise verdict. *)
    match fst (check_corpus env loaded) with
    | Verify.Passed cycles -> measured cycles
    | Verify.Wrong_output -> Core_wrong_output
    | Verify.Crashed msg -> Core_crashed msg
    | Verify.Hung -> Core_hung
  else begin
    (* Fault injection on: the candidate replay runs inside a fault scope
       keyed by (binary, attempt).  A first failure is retried once under
       attempt 1 — transient replay/loader/executor faults are keyed by the
       scope and (almost surely) don't re-fire, while a deterministic
       miscompile (the fault is in the binary) fails again and the binary
       is quarantined.  All decisions are pure functions of the fault seed
       and the binary, so results stay byte-identical across -jN/cache. *)
    let key = binary_key binary in
    let site attempt = Faults.combine (Faults.hash_string key) attempt in
    match fst (check_corpus ~site:(site 0) env loaded) with
    | Verify.Passed cycles -> measured cycles
    | first ->
      Trace.incr "verify.retried";
      (match fst (check_corpus ~site:(site 1) env loaded) with
       | Verify.Passed cycles -> measured cycles   (* transient fault *)
       | second ->
         let reason =
           Printf.sprintf "%s; retry: %s" (reason_of_check first)
             (reason_of_check second)
         in
         record_quarantine ~log:env.quarantine ~key ~reason ();
         Core_quarantined reason)
  end

let outcome_of_core env ~ev_index core =
  match core with
  | Core_measured { cycles; size; key } ->
    Ga.Measured { times = noise_times env ~ev_index cycles; size; key }
  | Core_compile_failed msg -> Ga.Compile_failed msg
  | Core_compile_timeout -> Ga.Compile_failed "compile timeout"
  | Core_crashed msg -> Ga.Runtime_crashed msg
  | Core_hung -> Ga.Runtime_hung
  | Core_wrong_output -> Ga.Wrong_output
  | Core_quarantined msg -> Ga.Quarantined msg

(* The pool yields the raw deterministic core, not a noised GA outcome:
   the session journals cores and turns them into outcomes with its
   per-batch finish policy. *)
let make_core_pool ?jobs ?cache env =
  Evalpool.create ?jobs ?cache ~canon:Genome.canon
    ~compile:(compile_core env) ~key_of:binary_key ~verify:(verify_core env)
    ()

type optimized = {
  env : evaluation_env;
  ga : Ga.result;
  best_genome : Genome.t option;
  best_fitness : float option;
  best_binary : Binary.t option;
  pool_stats : Evalpool.stats;
}

(* Digest over everything the search decided: the GA history (already
   byte-rendered by [Ga.history_digest]) plus the hill-climb's final
   winner, which the GA history does not cover.  This is the value the
   kill/resume contract asserts byte-identical across restarts. *)
let search_digest opt =
  let best_txt =
    match opt.best_genome with None -> "-" | Some g -> Genome.to_text g
  in
  let fit_txt =
    match opt.best_fitness with
    | None -> "-"
    | Some f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ Ga.history_digest opt.ga; best_txt; fit_txt ]))

(* Idle-priority spooler model (paper §3.2): the device hashes and stores
   captured pages while the search is otherwise idle — in the gaps between
   GA evaluation batches.  A bounded chunk per gap keeps the model honest
   (the spool drains over time, not instantly); results cannot depend on
   it, because the store's contents are a pure function of what was
   captured — never of when the drain ran. *)
let idle_drain_chunk = 256

let idle_drain () =
  match Snapshot.current_store () with
  | None -> ()
  | Some storage -> ignore (Storage.drain ~max_pages:idle_drain_chunk storage)

(* ---------------------- checkpointed search driver ------------------- *)

type finish =
  evaluation_env -> batch:int -> (int * eval_core) array -> Ga.outcome array

let default_finish env ~batch:_ tasks =
  Array.map (fun (ev_index, core) -> outcome_of_core env ~ev_index core) tasks

(* Identity of a run configuration.  Everything the recorded evaluation
   sequence depends on is covered: the app's content (its front end's
   digest: dexfile and dispatch profile, so a same-named app with other
   code is refused) and the armed fault spec (it decides which binaries
   are quarantined) included; [jobs]/[cache] are deliberately {e not} —
   the determinism contract makes them result-invariant, so a checkpoint
   taken at [-j4] resumes fine at [-j1 --no-cache] and vice versa. *)
let run_fingerprint env ~seed ~cfg ~seed_genomes =
  let faults_txt =
    Option.fold ~none:"off" ~some:Faults.spec_string (Faults.armed ())
  in
  let corpus_txt =
    String.concat ","
      (List.map (fun ce -> ce.ce_input.App.in_label) env.corpus)
  in
  let seeds_txt =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map Genome.to_text seed_genomes)))
  in
  Printf.sprintf
    "ckpt-v1;app=%s;frontend=%s;seed=%d;replays=%d;%s;corpus=%s;seeds=%s;\
     faults=%s"
    env.app.App.name (Compile.frontend_digest env.frontend) seed
    replays_per_eval (Ga.config_fingerprint cfg) corpus_txt seeds_txt
    faults_txt

type search_session = {
  ss_env : evaluation_env;
  ss_file : string option;
  ss_fingerprint : string;
  ss_abort_after : int option;
  ss_mk_pool : unit -> (Binary.t, eval_core) Evalpool.t;
  ss_pool : (Binary.t, eval_core) Evalpool.t ref;
  ss_mk_search : unit -> Rng.t * optimized Ga.step;
  ss_finish : finish;
  mutable ss_rng : Rng.t;
  mutable ss_step : optimized Ga.step;
  mutable ss_journal : Checkpoint.batch list;       (* left to replay *)
  mutable ss_recorded_rev : Checkpoint.batch list;  (* completed, newest first *)
  mutable ss_live : int;
  mutable ss_replayed : int;
  mutable ss_warnings : string list;
  mutable ss_result : optimized option;
}

type step_outcome = [ `Live | `Replayed | `Finished of optimized ]

let session_warnings s = List.rev s.ss_warnings
let session_live_batches s = s.ss_live
let session_replayed_batches s = s.ss_replayed
let session_result s = s.ss_result

(* Seed the pool's memos with everything the journal already knows: a
   resumed run's live batches then hit the genome/binary memos exactly as
   the uninterrupted run's would have — the persisted-memo half of the
   checkpoint (a no-op under --no-cache). *)
let seed_pool_from_journal pool batches =
  let genomes = ref [] and keys = ref [] in
  List.iter
    (fun b ->
       List.iter
         (fun tk ->
            let core = tk.Checkpoint.t_core in
            genomes := (tk.Checkpoint.t_canon, core) :: !genomes;
            match core with
            | Core_measured { key; _ } -> keys := (key, core) :: !keys
            | _ -> ())
         b.Checkpoint.b_tasks)
    batches;
  Evalpool.seed_caches pool ~genomes:!genomes ~keys:!keys

let start_search ?(seed = 99) ?(cfg = Ga.quick_config) ?jobs ?cache
    ?(corpus = []) ?(seed_genomes = []) ?quarantine ?checkpoint ?abort_after
    ?(finish = default_finish) app capture =
  let qlog =
    match quarantine with Some q -> q | None -> global_quarantine
  in
  let env = make_eval_env ~seed:(seed + 1) ~corpus ~quarantine:qlog app capture in
  let mk_pool () = make_core_pool ?jobs ?cache env in
  let the_pool = ref (mk_pool ()) in
  let fingerprint = run_fingerprint env ~seed ~cfg ~seed_genomes in
  let mk_search () =
    let rng = Rng.create seed in
    let body ~evaluate_batch =
      let ga =
        Ga.run ~seed_genomes rng cfg ~evaluate_batch
          ?baseline_ms:
            (if Float.is_nan env.android_region_ms then None
             else Some env.android_region_ms)
          ?o3_ms:
            (if Float.is_nan env.o3_region_ms then None
             else Some env.o3_region_ms)
          ()
      in
      let best =
        match ga.Ga.best with
        | None -> None
        | Some (genome, fit) ->
          Some
            (Ga.hill_climb ~ev_base:ga.Ga.evaluations rng
               ~evaluate_batch (genome, fit)
               ~rounds:2)
      in
      let best_genome = Option.map fst best in
      let best_binary =
        Option.bind best_genome (fun g -> Result.to_option (compile_core env g))
      in
      { env; ga; best_genome; best_fitness = Option.map snd best;
        best_binary; pool_stats = Evalpool.stats !the_pool }
    in
    (rng, Ga.coop body)
  in
  let journal, warnings =
    match checkpoint with
    | None -> ([], [])
    | Some file ->
      let cold why =
        record_quarantine ~log:qlog ~key:("checkpoint:" ^ file) ~reason:why ();
        ( [],
          [ Printf.sprintf "checkpoint %s: %s (starting cold)" file why ] )
      in
      (match Checkpoint.load file with
       | `Absent -> ([], [])
       | `Damaged why -> cold why
       | `Loaded (t, store_warnings) ->
         if t.Checkpoint.fingerprint <> fingerprint then
           cold "run configuration mismatch"
         else begin
           restore_quarantine qlog t.Checkpoint.quarantine;
           seed_pool_from_journal !the_pool t.Checkpoint.batches;
           Trace.add "ckpt.batches_resumed"
             (List.length t.Checkpoint.batches);
           ( t.Checkpoint.batches,
             List.map
               (fun w -> Printf.sprintf "checkpoint %s: %s" file w)
               store_warnings )
         end)
  in
  let rng, step = mk_search () in
  { ss_env = env; ss_file = checkpoint; ss_fingerprint = fingerprint;
    ss_abort_after = abort_after; ss_mk_pool = mk_pool; ss_pool = the_pool;
    ss_mk_search = mk_search; ss_finish = finish; ss_rng = rng; ss_step = step;
    ss_journal = journal; ss_recorded_rev = []; ss_live = 0;
    ss_replayed = 0; ss_warnings = List.rev warnings; ss_result = None }

let save_checkpoint s =
  match s.ss_file with
  | None -> ()
  | Some file ->
    Checkpoint.save
      { Checkpoint.fingerprint = s.ss_fingerprint;
        batches = List.rev s.ss_recorded_rev;
        quarantine = quarantine_entries s.ss_env.quarantine }
      file

(* The journal diverged from what the configured search asked for (same
   fingerprint but different draws — a damaged-but-parseable journal, or a
   code/configuration skew the fingerprint missed).  Nothing derived from
   it can be trusted: warn, quarantine the file, and redo the whole search
   live from scratch on a fresh pool. *)
let cold_restart s why =
  Trace.incr "ckpt.cold_restarts";
  (match s.ss_file with
   | Some file ->
     record_quarantine ~log:s.ss_env.quarantine
       ~key:("checkpoint:" ^ file) ~reason:why ();
     s.ss_warnings <-
       Printf.sprintf "checkpoint %s: %s (restarting cold)" file why
       :: s.ss_warnings
   | None ->
     s.ss_warnings <-
       Printf.sprintf "checkpoint: %s (restarting cold)" why
       :: s.ss_warnings);
  s.ss_journal <- [];
  s.ss_recorded_rev <- [];
  s.ss_live <- 0;
  s.ss_replayed <- 0;
  s.ss_pool := s.ss_mk_pool ();
  let rng, step = s.ss_mk_search () in
  s.ss_rng <- rng;
  s.ss_step <- step

let batch_matches b ~cursor tasks =
  b.Checkpoint.b_cursor = cursor
  && List.length b.Checkpoint.b_tasks = Array.length tasks
  && List.for_all2
       (fun tk (ev_index, genome) ->
          tk.Checkpoint.t_ev_index = ev_index
          && tk.Checkpoint.t_canon = Genome.canon genome)
       b.Checkpoint.b_tasks
       (Array.to_list tasks)

let rec search_step s : step_outcome =
  match s.ss_step with
  | Ga.Step_done r ->
    s.ss_result <- Some r;
    `Finished r
  | Ga.Step_eval (tasks, resume) ->
    let cursor = Rng.cursor s.ss_rng in
    let batch = s.ss_live + s.ss_replayed in
    (match s.ss_journal with
     | b :: rest when batch_matches b ~cursor tasks ->
       s.ss_journal <- rest;
       s.ss_recorded_rev <- b :: s.ss_recorded_rev;
       s.ss_replayed <- s.ss_replayed + 1;
       Trace.incr "ckpt.batches_replayed";
       let cores =
         Array.of_list
           (List.map
              (fun tk -> (tk.Checkpoint.t_ev_index, tk.Checkpoint.t_core))
              b.Checkpoint.b_tasks)
       in
       s.ss_step <- resume (s.ss_finish s.ss_env ~batch cores);
       `Replayed
     | _ :: _ ->
       cold_restart s "journal diverged from the configured search";
       search_step s
     | [] ->
       let cores = Evalpool.evaluate_batch !(s.ss_pool) tasks in
       idle_drain ();
       let recorded =
         { Checkpoint.b_cursor = cursor;
           b_tasks =
             Array.to_list
               (Array.mapi
                  (fun i core ->
                     let ev_index, genome = tasks.(i) in
                     { Checkpoint.t_ev_index = ev_index;
                       t_canon = Genome.canon genome;
                       t_core = core })
                  cores) }
       in
       s.ss_recorded_rev <- recorded :: s.ss_recorded_rev;
       s.ss_live <- s.ss_live + 1;
       save_checkpoint s;
       (match s.ss_abort_after with
        | Some n when s.ss_live >= n -> raise Checkpoint.Injected_abort
        | _ -> ());
       let cores = Array.mapi (fun i core -> (fst tasks.(i), core)) cores in
       s.ss_step <- resume (s.ss_finish s.ss_env ~batch cores);
       `Live)

let rec run_session s =
  match search_step s with
  | `Finished r -> r
  | `Live | `Replayed -> run_session s

type request = {
  r_app : App.t;
  r_seed : int;
  r_cfg : Ga.config;
  r_corpus_k : int;
  r_checkpoint : string option;
}

let request ?(seed = 7) ?(cfg = Ga.quick_config) ?(corpus_k = 1) ?checkpoint
    app =
  { r_app = app; r_seed = seed; r_cfg = cfg; r_corpus_k = corpus_k;
    r_checkpoint = checkpoint }

(* The one capture->search seed rule: capture at [seed], search at
   [seed + 13].  Every front end (CLI, serve, studies) goes through here,
   so their digests are comparable 1:1. *)
let start ?jobs ?cache ?quarantine ?abort_after r =
  match capture_corpus ~seed:r.r_seed ~k:r.r_corpus_k r.r_app with
  | None -> None
  | Some co ->
    Some
      ( co,
        start_search ~seed:(r.r_seed + 13) ~cfg:r.r_cfg ?jobs ?cache
          ~corpus:co.co_entries ?quarantine ?checkpoint:r.r_checkpoint
          ?abort_after r.r_app co.co_primary )

let final_binary opt =
  let base = android_binary_for opt.env.app in
  match opt.best_binary with
  | Some b -> Binary.overlay base b
  | None -> base

let o3_binary env =
  let base = android_binary_for env.app in
  match Compile.llvm_binary env.frontend Repro_lir.Pipelines.o3 env.region with
  | b -> Binary.overlay base b
  | exception (Compile.Compile_error _ | Compile.Compile_timeout) -> base

type speedups = {
  android_cycles : float;
  o3_cycles : float;
  ga_cycles : float;
  o3_speedup : float;
  ga_speedup : float;
}

let measure_speedups ?(runs = 5) app opt =
  Trace.span ~cat:"pipeline" ~args:[ ("app", app.App.name) ] "measure_speedups"
  @@ fun () ->
  let android = android_binary_for app in
  let o3 = o3_binary opt.env in
  let ga = final_binary opt in
  let mean_cycles binary =
    let samples =
      Array.init runs (fun i ->
          float_of_int (online_run ~seed:(1000 + i) ~binary app).cycles)
    in
    Stats.mean samples
  in
  let android_cycles = mean_cycles android in
  let o3_cycles = mean_cycles o3 in
  let ga_cycles = mean_cycles ga in
  { android_cycles; o3_cycles; ga_cycles;
    o3_speedup = android_cycles /. o3_cycles;
    ga_speedup = android_cycles /. ga_cycles }
