(* The repository benchmark.  One process runs one workload: a few
   set-up-only passes (timed, for setup_s), then whole rounds of the
   workload until the next round would overrun --seconds.  Every call goes
   through the public pipeline API and is timed here, with the monotonic
   Repro_util.Clock.  A traced run (--trace 1) instead records one round
   with Repro_util.Trace on, between two untraced ones, and reports the
   per-layer ledger (ledger.ml).  Metric names, units and directions come
   from BENCHMARK.json at the repository root; README.md explains the
   workloads, the metrics and how to recalibrate.

   Usage (from the repository root; perfbench/run.sh builds and does this):
     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
     main.exe compare DIR_A DIR_B     medians, deltas and verdicts per metric
     main.exe baseline DIR            baseline.json from seed-7 result files *)

module P = Repro_core.Pipeline
module Serve = Repro_core.Serve
module Checkpoint = Repro_core.Checkpoint
module App = Repro_apps.Registry
module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool
module Trace = Repro_util.Trace
module Clock = Repro_util.Clock
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module K = Perfkit

let benchmark_file = "BENCHMARK.json"
let baseline_file = "perfbench/baseline.json"
let tmp_dir = ".bench_tmp"

(* Worker domains per run, counting the calling domain. *)
let jobs = 2

(* The GA's random streams are pinned to the repro CLI's seed-7
   configuration (search seed 7 + 13, sweep stream 7 * 31 + 5).  A GA run
   is chaotic and its per-genome compile cost heavy-tailed: on a 2-vCPU VM,
   one quick FFT search took 1.7-15.8 s over 20 search seeds, and one bred
   LU genome spent 63 s in simplifycfg.  With the stream free, run time
   would measure which genomes a seed happened to breed.  --seed varies the
   inputs instead: the captured program state, the corpus inputs and the
   serve arrival order. *)
let pinned_seed = 7
let search_seed = pinned_seed + 13
let sweep_stream_seed = (pinned_seed * 31) + 5

(* Set-up-only passes before the measured rounds; with the rounds' own
   set-up they give setup_s its median. *)
let setup_passes = 2

let find_app name =
  match App.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

let span name f = Trace.span ~cat:"bench" ("bench:" ^ name) f

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.elapsed t0)

(* ------------------------------- ops --------------------------------- *)

(* One timed unit of a round: one app's search, one app's sweep, or one
   kill-and-resume serve run.  [o_units] are the attempted operations it
   stands for (failed_frac's denominator); [o_exact] holds the facts that
   must repeat exactly (digests, evaluation counts, outcome histograms). *)
type op = {
  o_units : string list;
  o_failures : (string * string) list;   (* unit, reason *)
  o_setup : float;
  o_search : float;
  o_wall : float;
  o_evals : int;
  o_speedups : float list;
  o_exact : (string * string) list;
  o_notes : (string * float) list;       (* harness-observed ledger values *)
}

let failed_op units reason =
  { o_units = units; o_failures = List.map (fun u -> (u, reason)) units;
    o_setup = 0.0; o_search = 0.0; o_wall = 0.0; o_evals = 0; o_speedups = [];
    o_exact = []; o_notes = [] }

(* An op that raises fails its units instead of ending the run. *)
let guarded units f =
  try f () with e -> failed_op units ("raised " ^ Printexc.to_string e)

let pause_note co =
  ( "capture.pause_ms_model",
    Repro_capture.Capture.total_ms co.P.co_primary.P.overhead )

(* capture + start_search: what a search pays before its first batch *)
let start ~seed ~cfg ~k app =
  match span "capture_corpus" (fun () -> P.capture_corpus ~seed ~k app) with
  | None -> None
  | Some co ->
    let session =
      span "start_search" (fun () ->
          P.start_search ~seed:search_seed ~cfg ~jobs ~corpus:co.P.co_entries
            ~quarantine:(P.create_quarantine_log ()) app co.P.co_primary)
    in
    Some (co, session)

let search_setup ~cfg ~k apps ~seed =
  snd (timed (fun () -> List.iter (fun a -> ignore (start ~seed ~cfg ~k a)) apps))

(* Whole-program runs per binary when measuring the installed winner.  The
   repro CLI makes 5; on these apps one run gives the same speedup to
   within 0.05% (exactly, on the Scimark kernels) for a fifth of the
   finish time. *)
let finish_runs = 1

(* One app, capture to installed binary: the repro CLI's optimize path. *)
let search_op ~cfg ~k ~seed app =
  let name = app.App.name in
  guarded [ name ] @@ fun () ->
  let t0 = Clock.now () in
  match start ~seed ~cfg ~k app with
  | None -> failed_op [ name ] "no replayable hot region"
  | Some (co, session) ->
    let setup = Clock.elapsed t0 in
    let rec drive () =
      match span "search_step" (fun () -> P.search_step session) with
      | `Finished opt -> opt
      | `Live | `Replayed -> drive ()
    in
    let opt, search = timed drive in
    ignore (span "final_binary" (fun () -> P.final_binary opt));
    let sp =
      span "measure_speedups" (fun () -> P.measure_speedups ~runs:finish_runs app opt)
    in
    let wall = Clock.elapsed t0 in
    let failures =
      match opt.P.best_binary with
      | None -> [ (name, "no verified winner") ]
      | Some b ->
        (match P.verify_core opt.P.env b with
         | P.Core_measured _ -> []
         | _ -> [ (name, "winner failed re-verification") ])
    in
    let evals = opt.P.pool_stats.Evalpool.tasks in
    { o_units = [ name ]; o_failures = failures; o_setup = setup;
      o_search = search; o_wall = wall; o_evals = evals;
      o_speedups = [ sp.P.ga_speedup ];
      o_exact =
        [ (name ^ ".digest", P.search_digest opt);
          (name ^ ".evals", string_of_int evals) ];
      o_notes = [ pause_note co ] }

(* ------------------------------ sweep -------------------------------- *)

(* five paper-sized batches per app: one round then lasts 15-20 s like
   the other workloads', far from the length at which a run would fit a
   second round *)
let sweep_genomes = 250
let sweep_batch = 50

let sweep_start ~seed app =
  match span "capture_corpus" (fun () -> P.capture_corpus ~seed ~k:1 app) with
  | None -> None
  | Some co ->
    let env =
      span "make_eval_env" (fun () ->
          P.make_eval_env ~seed:(search_seed + 1) app co.P.co_primary)
    in
    Some (co, env, span "make_core_pool" (fun () -> P.make_core_pool ~jobs env))

let sweep_setup apps ~seed =
  snd (timed (fun () -> List.iter (fun a -> ignore (sweep_start ~seed a)) apps))

let outcome_name = function
  | P.Core_measured _ -> "measured"
  | P.Core_compile_failed _ -> "compile_failed"
  | P.Core_compile_timeout -> "compile_timeout"
  | P.Core_crashed _ -> "crashed"
  | P.Core_hung -> "hung"
  | P.Core_wrong_output -> "wrong_output"
  | P.Core_quarantined _ -> "quarantined"

(* Figures 1/2 style: independent random genomes, nothing shared, sent in
   fixed batches through the core pool. *)
let sweep_op ~seed ~rng app =
  let name = app.App.name in
  let genomes = Array.init sweep_genomes (fun _ -> Genome.random rng) in
  let nbatches = (sweep_genomes + sweep_batch - 1) / sweep_batch in
  let units = List.init nbatches (Printf.sprintf "%s#%d" name) in
  guarded units @@ fun () ->
  let t0 = Clock.now () in
  match sweep_start ~seed app with
  | None -> failed_op units "no replayable hot region"
  | Some (co, env, pool) ->
    let setup = Clock.elapsed t0 in
    let cores, search =
      timed (fun () ->
          Array.concat
            (List.init nbatches (fun b ->
                 let lo = b * sweep_batch in
                 let tasks =
                   Array.init
                     (min sweep_batch (sweep_genomes - lo))
                     (fun i -> (lo + i, genomes.(lo + i)))
                 in
                 span "evaluate_batch" (fun () -> Evalpool.evaluate_batch pool tasks))))
    in
    let wall = Clock.elapsed t0 in
    let histogram =
      Array.fold_left
        (fun acc c ->
           let key = name ^ "." ^ outcome_name c in
           (key, 1 + Option.value (List.assoc_opt key acc) ~default:0)
           :: List.remove_assoc key acc)
        [] cores
      |> List.map (fun (key, n) -> (key, string_of_int n))
    in
    let best = ref None in
    Array.iteri
      (fun i c ->
         match c, !best with
         | P.Core_measured { cycles; _ }, Some (_, b) when cycles >= b -> ()
         | P.Core_measured { cycles; _ }, _ -> best := Some (i, cycles)
         | _ -> ())
      cores;
    let failures, speedups, best_exact =
      match !best with
      | None -> ([ (name, "no genome verified") ], [], [])
      | Some (i, cycles) ->
        let exact = [ (name ^ ".best_cycles", string_of_int cycles) ] in
        (match P.compile_core env genomes.(i) with
         | Ok b ->
           (match P.verify_core env b, P.replay_ms env b with
            | P.Core_measured { cycles = c; _ }, Some ms when c = cycles ->
              ([], [ env.P.android_region_ms /. ms ], exact)
            | _ -> ([ (name, "best genome failed re-verification") ], [], exact))
         | Error _ -> ([ (name, "best genome no longer compiles") ], [], exact))
    in
    { o_units = units; o_failures = failures; o_setup = setup;
      o_search = search; o_wall = wall;
      o_evals = (Evalpool.stats pool).Evalpool.tasks; o_speedups = speedups;
      o_exact = histogram @ best_exact; o_notes = [ pause_note co ] }

(* ------------------------------ serve -------------------------------- *)

let serve_tenants =
  [ "FFT"; "SOR"; "MonteCarlo"; "LU"; "Sieve"; "BubbleSort"; "SelectionSort";
    "Fibonacci.iter" ]

(* five round-robin rounds of eight tenants, then the simulated kill *)
let serve_abort_after = 40

let file_safe name =
  String.map (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' as c -> c | _ -> '_') name

let ensure_tmp_dir () =
  if not (Sys.file_exists tmp_dir) then Unix.mkdir tmp_dir 0o755

let remove_file f = if Sys.file_exists f then Sys.remove f

let submit_all sv reqs =
  List.fold_left
    (fun acc req ->
       match timed (fun () -> span "serve_submit" (fun () -> Serve.submit sv req)) with
       | `Admitted, dt -> acc +. dt
       | (`Queued _ | `Rejected), _ -> failwith "serve: tenant not admitted")
    0.0 reqs

let with_serve ?abort_after n f =
  let sv = Serve.create ~jobs ~queue_capacity:n ?abort_after ~max_active:n () in
  Fun.protect ~finally:(fun () -> Serve.shutdown sv) (fun () -> f sv)

(* The arrival order is the seeded input; every tenant's digest is
   independent of it by the scheduler's contract. *)
let serve_order ~seed =
  let a = Array.of_list (List.map find_app serve_tenants) in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a

let serve_setup ~seed =
  let order = serve_order ~seed in
  with_serve (List.length order) (fun sv ->
      submit_all sv (List.map (fun a -> Serve.request ~seed:pinned_seed a) order))

(* Replay speedup of a tenant's winner needs the Android region time of
   the same environment, and the pause model its capture; the scheduler
   exposes neither, so both are rebuilt once per process, outside every
   timed section: (app, (Android region ms, capture pause ms)). *)
let serve_references =
  lazy
    (List.map
       (fun name ->
          let a = find_app name in
          ( name,
            match P.capture_once ~seed:pinned_seed a with
            | Some cap ->
              ( (P.make_eval_env ~seed:(search_seed + 1) a cap).P.android_region_ms,
                Repro_capture.Capture.total_ms cap.P.overhead )
            | None -> (nan, 0.0) ))
       serve_tenants)

let serve_op ~seed =
  ensure_tmp_dir ();
  let order = serve_order ~seed in
  let n = List.length order in
  let ckpt a =
    Filename.concat tmp_dir
      (Printf.sprintf "serve-%d-%s.ckpt" (Unix.getpid ()) (file_safe a.App.name))
  in
  let requests = List.map (fun a -> Serve.request ~seed:pinned_seed ~checkpoint:(ckpt a) a) order in
  List.iter (fun a -> remove_file (ckpt a)) order;
  Fun.protect ~finally:(fun () -> List.iter (fun a -> remove_file (ckpt a)) order)
  @@ fun () ->
  let evals0 = (Evalpool.cumulative_stats ()).Evalpool.tasks in
  let t0 = Clock.now () in
  let drive sv =
    timed (fun () ->
        match span "serve_drive" (fun () -> Serve.drive sv) with
        | () -> false
        | exception Checkpoint.Injected_abort -> true)
  in
  let setup, (aborted, drive_killed) =
    with_serve ~abort_after:serve_abort_after n (fun sv ->
        let setup = submit_all sv requests in
        (setup, drive sv))
  in
  let journal_bytes =
    List.fold_left
      (fun acc a ->
         if Sys.file_exists (ckpt a) then acc + (Unix.stat (ckpt a)).Unix.st_size else acc)
      0 order
  in
  let load_failures =
    List.filter_map
      (fun a ->
         match span "checkpoint_load" (fun () -> Checkpoint.load (ckpt a)) with
         | `Loaded _ -> None
         | `Absent -> Some (a.App.name, "no journal after the kill")
         | `Damaged why -> Some (a.App.name, "journal damaged: " ^ why))
      order
  in
  let reports, stats, (_, drive_resumed) =
    with_serve n (fun sv ->
        ignore (submit_all sv requests);
        let d = drive sv in
        (Serve.reports sv, Serve.stats sv, d))
  in
  let wall = Clock.elapsed t0 in
  let evals = (Evalpool.cumulative_stats ()).Evalpool.tasks - evals0 in
  let references = Lazy.force serve_references in
  let report_failures =
    List.concat_map
      (fun r ->
         let name = r.Serve.rp_app in
         (match r.Serve.rp_outcome with
          | `Finished -> []
          | `Failed why -> [ (name, "failed: " ^ why) ]
          | `Unstarted -> [ (name, "never started") ])
         @ (if r.Serve.rp_replayed_batches = 0 then [ (name, "resume replayed nothing") ]
            else []))
      reports
  in
  { o_units = List.map (fun a -> a.App.name) order;
    o_failures =
      (if aborted then [] else [ ("serve", "the simulated kill did not fire") ])
      @ load_failures @ report_failures;
    o_setup = setup; o_search = drive_killed +. drive_resumed; o_wall = wall;
    o_evals = evals;
    o_speedups =
      List.filter_map
        (fun r ->
           match r.Serve.rp_best_ms, List.assoc_opt r.Serve.rp_app references with
           | Some best, Some (base, _) when Float.is_finite base -> Some (base /. best)
           | _ -> None)
        reports;
    o_exact =
      ("serve.evals", string_of_int evals)
      :: List.map
        (fun r ->
           (r.Serve.rp_app ^ ".digest", Option.value r.Serve.rp_digest ~default:"-"))
        reports;
    o_notes =
      [ ("checkpoint.journal_bytes", float_of_int journal_bytes);
        ("serve.fairness_spread", stats.Serve.st_fairness_spread);
        ( "capture.pause_ms_model",
          List.fold_left (fun acc (_, (_, pause)) -> Float.max acc pause) 0.0 references ) ] }

(* ---------------------------- workloads ------------------------------ *)

type workload = {
  w_name : string;
  w_seed_invariant : bool;
  (* every exact fact is the same at any --seed: the capture seed does not
     change these apps' searches, so baseline.json is checked on every run *)
  w_setup : seed:int -> float;       (* one set-up-only pass, seconds *)
  w_round : seed:int -> op list;
}

let search_workload ~name ~seed_invariant ~apps ~cfg ~k =
  let apps = List.map find_app apps in
  { w_name = name; w_seed_invariant = seed_invariant;
    w_setup = search_setup ~cfg ~k apps;
    w_round = (fun ~seed -> List.map (search_op ~cfg ~k ~seed) apps) }

let workloads =
  [ search_workload ~name:"scimark-full" ~seed_invariant:true
      ~apps:[ "FFT"; "SOR"; "LU" ] ~cfg:Ga.default_config ~k:1;
    search_workload ~name:"interactive-corpus" ~seed_invariant:false
      ~apps:[ "MaterialLife"; "ColorOverflow"; "Svarka Calculator" ]
      ~cfg:Ga.quick_config ~k:4;
    (let apps = List.map find_app [ "FFT"; "LU"; "MaterialLife" ] in
     { w_name = "random-sweep"; w_seed_invariant = false;
       w_setup = sweep_setup apps;
       w_round =
         (fun ~seed ->
            (* one stream per app: an app's genomes do not depend on how
               many the apps before it drew *)
            List.mapi
              (fun i app -> sweep_op ~seed ~rng:(Rng.of_pair sweep_stream_seed i) app)
              apps) });
    { w_name = "serve-resume"; w_seed_invariant = true; w_setup = serve_setup;
      w_round = (fun ~seed -> [ guarded serve_tenants (fun () -> serve_op ~seed) ]) } ]

(* ------------------------- BENCHMARK.json ---------------------------- *)

type decl = {
  d_name : string;
  d_unit : string;
  d_better : K.better;
  d_bound : float option;
}

let read_json file =
  match K.json_of_string (In_channel.with_open_bin file In_channel.input_all) with
  | j -> j
  | exception (Sys_error msg | Failure msg) ->
    failwith (Printf.sprintf "%s: %s" file msg)

let decls bench key =
  match K.member key bench with
  | K.Arr items ->
    List.map
      (fun m ->
         match
           ( K.to_str (K.member "name" m),
             K.to_str (K.member "unit" m),
             Option.bind (K.to_str (K.member "better" m)) K.better_of_string )
         with
         | Some d_name, Some d_unit, Some d_better ->
           { d_name; d_unit; d_better; d_bound = K.to_num (K.member "bound" m) }
         | _ -> failwith (benchmark_file ^ ": malformed entry in " ^ key))
      items
  | _ -> failwith (benchmark_file ^ ": missing " ^ key)

(* The declaration is the single source of names and units: every
   declared metric must have been computed, and nothing else. *)
let declared decls computed =
  let names = List.map (fun d -> d.d_name) decls in
  List.iter
    (fun (name, _) ->
       if not (List.mem name names) then
         failwith (Printf.sprintf "metric %s is not declared in %s" name benchmark_file))
    computed;
  List.map
    (fun d ->
       match List.assoc_opt d.d_name computed with
       | Some v -> (d.d_name, v, d.d_unit)
       | None ->
         failwith (Printf.sprintf "declared metric %s was not computed" d.d_name))
    decls

(* ------------------------------ checks ------------------------------- *)

(* "Fibonacci.iter.digest" is a fact about the unit "Fibonacci.iter" *)
let unit_of_key key =
  match String.rindex_opt key '.' with Some i -> String.sub key 0 i | None -> key

let facts ops = List.concat_map (fun o -> o.o_exact) ops

(* A round's exact facts must match baseline.json when it applies: at its
   seed, or at every seed for a seed-invariant workload. *)
let baseline_failures w ~seed ops =
  let b = read_json baseline_file in
  if w.w_seed_invariant || K.to_num (K.member "seed" b) = Some (float_of_int seed)
  then
    List.filter_map
      (fun (k, v) ->
         match K.to_str (K.member k (K.member w.w_name (K.member "exact" b))) with
         | Some expected when not (String.equal expected v) ->
           Some (unit_of_key k, Printf.sprintf "%s is %s, baseline %s" k v expected)
         | _ -> None)
      (facts ops)
  else []

(* ... and every round of one run must repeat the first round's facts. *)
let repeat_failures rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
    let reference = facts first in
    List.filter_map
      (fun (k, v) ->
         match List.assoc_opt k reference with
         | Some v0 when not (String.equal v0 v) ->
           Some (unit_of_key k, k ^ " differs between rounds")
         | _ -> None)
      (List.concat_map facts rounds)

(* ------------------------------- run --------------------------------- *)

(* A "VmRSS"/"VmHWM" line of /proc/self/status, in MB (0 off Linux). *)
let proc_status_mb key =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ k; v ] when String.equal k key ->
           Option.map
             (fun kb -> float_of_int kb /. 1024.0)
             (int_of_string_opt (String.trim (Filename.chop_suffix (String.trim v) "kB")))
         | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0.0
  | exception Sys_error _ -> 0.0

(* Resident set size sampled every 50 ms while [f] runs.  Over ten runs
   the peak (VmHWM) spread by 8-27% per workload, as the moment the major
   GC catches up moves; the median of the samples spread by 3-9%. *)
let sampling_rss f =
  let samples = ref [] and stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
         while not (Atomic.get stop) do
           samples := proc_status_mb "VmRSS" :: !samples;
           Thread.delay 0.05
         done)
      ()
  in
  let v = Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join sampler) f in
  (v, !samples)

let sum f ops = List.fold_left (fun acc o -> acc +. f o) 0.0 ops
let median xs = Stats.median (Array.of_list xs)

(* A round starts from the state a fresh process would have: empty
   process-wide compile and block-plan caches and a compacted heap. *)
let fresh_round w ~seed =
  Repro_lir.Stagecache.reset ();
  Repro_lir.Blockplan.reset_cache ();
  Gc.compact ();
  w.w_round ~seed

let round_wall ops = sum (fun o -> o.o_wall) ops

let end_to_end ~setups ~rss rounds =
  let all = List.concat rounds in
  [ ("wall_s", median (List.map round_wall rounds));
    ("setup_s", median (setups @ List.map (sum (fun o -> o.o_setup)) rounds));
    ("evals_per_s",
     float_of_int (List.fold_left (fun acc o -> acc + o.o_evals) 0 all)
     /. sum (fun o -> o.o_search) all);
    ("rss_median_mb", median rss);
    ("speedup_geomean",
     Stats.geomean (Array.of_list (List.concat_map (fun o -> o.o_speedups) (List.hd rounds)))) ]

let notes ops =
  List.fold_left
    (fun acc (k, v) ->
       match List.assoc_opt k acc with
       | Some v0 -> (k, Float.max v v0) :: List.remove_assoc k acc
       | None -> (k, v) :: acc)
    [] (List.concat_map (fun o -> o.o_notes) ops)

let run_suite ~bench w ~seed ~seconds ~traced ~json_out =
  let setups = List.init setup_passes (fun _ -> w.w_setup ~seed) in
  let rounds, computed, decl_key =
    if traced then begin
      (* untraced rounds on both sides of the traced one are the reference
         for the tracing overhead: a process's first round runs slower
         than its later ones *)
      let before = fresh_round w ~seed in
      Trace.reset ();
      Trace.enable ();
      let gc0 = Gc.quick_stat () in
      let ops = fresh_round w ~seed in
      let gc1 = Gc.quick_stat () in
      Trace.disable ();
      let peak = proc_status_mb "VmHWM" in
      let after = fresh_round w ~seed in
      let reference = (round_wall before +. round_wall after) /. 2.0 in
      ( [ before; ops; after ],
        Ledger.metrics ~events:(Trace.events ()) ~jobs
          ~notes:(("os.peak_rss_mb", peak) :: notes ops)
          ~gc0 ~gc1
          ~overhead:((round_wall ops /. reference) -. 1.0),
        "per_layer" )
    end
    else begin
      (* whole rounds only, and another one only if it would end in time
         even 25% slower than the last: the round count must not flip
         between runs with the machine's speed *)
      let t0 = Clock.now () in
      let rec loop acc =
        let ops, wall = timed (fun () -> fresh_round w ~seed) in
        if Clock.elapsed t0 +. (1.25 *. wall) <= seconds then loop (ops :: acc)
        else List.rev (ops :: acc)
      in
      let rounds, rss = sampling_rss (fun () -> loop []) in
      (rounds, end_to_end ~setups ~rss rounds, "end_to_end")
    end
  in
  let metrics = declared (decls bench decl_key) computed in
  (* failures are (round, unit, reason); a unit fails once per round *)
  let failures =
    List.sort_uniq compare
      (List.concat
         (List.mapi
            (fun i ops ->
               List.map (fun (u, why) -> (i, u, why))
                 (List.concat_map (fun o -> o.o_failures) ops
                  @ baseline_failures w ~seed ops))
            rounds)
       @ List.map (fun (u, why) -> (0, u, why)) (repeat_failures rounds))
  in
  let attempted =
    List.fold_left
      (fun acc ops -> acc + List.length (List.concat_map (fun o -> o.o_units) ops))
      0 rounds
  in
  let failed =
    min attempted
      (List.length (List.sort_uniq compare (List.map (fun (i, u, _) -> (i, u)) failures)))
  in
  let correct = failed = 0 in
  Printf.printf "workload %s  seed %d  %d round(s)  %s\n" w.w_name seed
    (List.length rounds) (if traced then "traced" else "untraced");
  List.iteri
    (fun i ops ->
       List.iter
         (fun o ->
            Printf.printf
              "  round %d  %-28s setup %6.2f s  search %6.2f s  wall %6.2f s  %5d evals\n"
              i (String.concat "," o.o_units) o.o_setup o.o_search o.o_wall o.o_evals)
         ops)
    rounds;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %14.4f %s\n" name v unit)
    metrics;
  List.iter (fun (_, u, why) -> Printf.printf "FAILED %s: %s\n" u why) failures;
  let result =
    [ ("correct", K.Bool correct);
      ("attempted", K.Num (float_of_int attempted));
      ("failed", K.Num (float_of_int failed));
      ("metrics",
       K.Obj
         (List.map
            (fun (name, v, unit) ->
               (name, K.Obj [ ("value", K.Num v); ("unit", K.Str unit) ]))
            metrics)) ]
  in
  (match json_out with
   | None -> ()
   | Some file ->
     let exact = List.sort_uniq compare (List.concat_map (fun o -> o.o_exact) (List.hd rounds)) in
     Out_channel.with_open_text file (fun oc ->
         output_string oc
           (K.json_to_string
              (K.Obj
                 ([ ("workload", K.Str w.w_name);
                    ("seed", K.Num (float_of_int seed));
                    ("trace", K.Num (if traced then 1.0 else 0.0)) ]
                  @ result
                  @ [ ("exact", K.Obj (List.map (fun (k, v) -> (k, K.Str v)) exact)) ])));
         output_char oc '\n'));
  print_endline (K.json_to_string (K.Obj result));
  if correct then 0 else 1

(* ----------------------------- compare ------------------------------- *)

let load_set dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f -> read_json (Filename.concat dir f))

let str_field key r = Option.value (K.to_str (K.member key r)) ~default:""
let num_field key r = Option.value (K.to_num (K.member key r)) ~default:nan

let metric_values name records =
  List.filter_map (fun r -> K.to_num (K.member "value" (K.member name (K.member "metrics" r)))) records

(* the distinct exact-fact maps among the results of one workload and seed *)
let distinct_facts records w seed =
  List.sort_uniq compare
    (List.filter_map
       (fun r ->
          if String.equal (str_field "workload" r) w && num_field "seed" r = seed then
            match K.member "exact" r with
            | K.Obj fields -> Some (List.sort compare fields)
            | _ -> Some []
          else None)
       records)

let compare_sets ~bench dir_a dir_b =
  let set_a = load_set dir_a and set_b = load_set dir_b in
  let untraced = List.filter (fun r -> num_field "trace" r = 0.0) in
  let ua = untraced set_a and ub = untraced set_b in
  let names = List.sort_uniq String.compare (List.map (str_field "workload") (ua @ ub)) in
  let ok = ref true in
  Printf.printf "%-20s %-16s %12s %12s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "delta" "bound" "verdict";
  List.iter
    (fun w ->
       let of_w = List.filter (fun r -> String.equal (str_field "workload" r) w) in
       let ra = of_w ua and rb = of_w ub in
       List.iter
         (fun d ->
            let a = metric_values d.d_name ra and b = metric_values d.d_name rb in
            let bound = Option.value d.d_bound ~default:0.0 in
            if a = [] || b = [] then begin
              ok := false;
              Printf.printf "%-20s %-16s %12s %12s %8s %6.1f%%  missing\n" w d.d_name
                (if a = [] then "-" else Printf.sprintf "%.4g" (median a))
                (if b = [] then "-" else Printf.sprintf "%.4g" (median b))
                "-" (100.0 *. bound)
            end
            else begin
              let verdict = K.judge ~better:d.d_better ~bound a b in
              if verdict <> K.Agree then ok := false;
              let ma = median a and mb = median b in
              Printf.printf "%-20s %-16s %12.4g %12.4g %+7.1f%% %6.1f%%  %s\n" w d.d_name ma
                mb
                (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
                (100.0 *. bound) (K.verdict_name verdict)
            end)
         (decls bench "end_to_end"))
    names;
  let all = set_a @ set_b in
  List.iter
    (fun r ->
       if K.member "correct" r <> K.Bool true then begin
         ok := false;
         Printf.printf "incorrect run: %s seed %.0f\n" (str_field "workload" r)
           (num_field "seed" r)
       end)
    all;
  (* exact counts: every run of one (workload, seed) must agree *)
  let groups =
    List.sort_uniq compare
      (List.map (fun r -> (str_field "workload" r, num_field "seed" r)) all)
  in
  List.iter
    (fun (w, seed) ->
       match distinct_facts all w seed with
       | [ m ] ->
         Printf.printf "exact %-20s seed %-4.0f identical (%d facts)\n" w seed
           (List.length m)
       | _ ->
         ok := false;
         Printf.printf "exact %-20s seed %-4.0f DIFFER between runs\n" w seed)
    groups;
  if !ok then 0 else 1

(* Pin the deterministic half from seed-7 result files (see README.md). *)
let write_baseline dir =
  let records = load_set dir in
  let exact =
    List.map
      (fun w ->
         match distinct_facts records w.w_name (float_of_int pinned_seed) with
         | [ m ] -> (w.w_name, K.Obj m)
         | [] -> failwith ("no seed-7 result for " ^ w.w_name)
         | _ -> failwith ("seed-7 results disagree for " ^ w.w_name))
      workloads
  in
  print_endline
    (K.json_to_string ~pretty:true
       (K.Obj [ ("seed", K.Num (float_of_int pinned_seed)); ("exact", K.Obj exact) ]));
  0

(* ------------------------------- CLI --------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
    \       main.exe compare DIR_A DIR_B\n\
    \       main.exe baseline DIR\n\
     workloads:";
  List.iter (fun w -> prerr_endline ("  " ^ w.w_name)) workloads;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench () =
    try read_json benchmark_file
    with Failure msg -> prerr_endline ("perfbench: " ^ msg); exit 2
  in
  let code =
    match args with
    | [ "compare"; a; b ] -> compare_sets ~bench:(bench ()) a b
    | [ "baseline"; dir ] -> write_baseline dir
    | _ ->
      let bench = bench () in
      let workload = ref None and seed = ref pinned_seed and trace = ref false
      and json_out = ref None
      and seconds =
        ref (Option.value (K.to_num (K.member "run_seconds" bench)) ~default:20.0)
      in
      let positive_int s =
        match int_of_string_opt s with Some v when v >= 0 -> v | _ -> usage ()
      in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
          (match List.find_opt (fun x -> String.equal x.w_name w) workloads with
           | Some x -> workload := Some x
           | None -> prerr_endline ("perfbench: unknown workload " ^ w); usage ());
          parse rest
        | "--seed" :: n :: rest -> seed := positive_int n; parse rest
        | "--seconds" :: n :: rest -> seconds := float_of_int (positive_int n); parse rest
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
        | "--json" :: file :: rest -> json_out := Some file; parse rest
        | a :: _ -> prerr_endline ("perfbench: bad argument " ^ a); usage ()
      in
      parse args;
      (match !workload with
       | None -> usage ()
       | Some w ->
         run_suite ~bench w ~seed:!seed ~seconds:!seconds ~traced:!trace
           ~json_out:!json_out)
  in
  (try Sys.rmdir tmp_dir with Sys_error _ -> ());
  exit code
