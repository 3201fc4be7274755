(* The timing gates: the three wall-clock ratios that CI bounds.  Every
   exact property the reproduction promises (search digests, the engine
   contract, corpus survival, store dedup, fleet convergence, serve
   resume) is asserted by `dune runtest`, and the paper's tables and
   figures come from `repro experiment`.  What is left here needs a clock.

   Usage: dune exec bench/main.exe

   Takes no arguments and writes no file.  Prints one line per ratio and
   exits 1 when any bound fails. *)

module P = Repro_core.Pipeline
module Clock = Repro_util.Clock

let fft () = Option.get (Repro_apps.Registry.find "FFT")

(* Print one reading with its verdict; return whether it held. *)
let gate ok fmt =
  Printf.ksprintf
    (fun line ->
       Printf.printf "%-6s %s\n%!" (if ok then "ok" else "FAIL") line;
       ok)
    fmt

(* ------------------------------ replay ------------------------------ *)

(* Verified replay of FFT's Android-pipeline binary under the block-fused
   engine must be at least 1.3x faster than under the per-instruction
   reference engine.  The binary is loaded once, outside the timed loops,
   and one warm-up replay per engine builds the fused plan.  The gate reads
   the median ratio of 9 rounds of 10 replays that alternate which engine
   goes first: 30 replays of one engine timed after 30 of the other read
   anywhere from 1.01x to 1.70x at unchanged code. *)
let replay_gate () =
  let module Replay = Repro_capture.Replay in
  let module Blockexec = Repro_lir.Blockexec in
  let app = fft () in
  let dx = Repro_apps.Registry.dexfile app in
  let snap = (Option.get (P.capture_once app)).P.snapshot in
  let version =
    Replay.Android_code (Blockexec.load (P.android_binary_for app))
  in
  let replay engine = ignore (Replay.run ~engine dx snap version) in
  let round_ns engine =
    let t0 = Clock.now () in
    for _ = 1 to 10 do replay engine done;
    Clock.elapsed t0 *. 1e9 /. 10.
  in
  replay Blockexec.Ref;
  replay Blockexec.Fused;
  let rounds =
    Array.init 9 (fun r ->
        if r mod 2 = 0 then
          let ref_ns = round_ns Blockexec.Ref in
          (ref_ns, round_ns Blockexec.Fused)
        else
          let fused_ns = round_ns Blockexec.Fused in
          (round_ns Blockexec.Ref, fused_ns))
  in
  let sorted f =
    let a = Array.map f rounds in
    Array.sort Float.compare a;
    a
  in
  let ratios = sorted (fun (ref_ns, fused_ns) -> ref_ns /. fused_ns) in
  gate (ratios.(4) >= 1.3)
    "replay   fused vs ref, FFT Android binary: median %.2fx of 9 \
     alternating rounds (bound >= 1.3x; rounds %.2f-%.2fx; median ref \
     %.0f ns, fused %.0f ns)"
    ratios.(4) ratios.(0) ratios.(8) (sorted fst).(4) (sorted snd).(4)

(* ------------------------------ compile ----------------------------- *)

(* Generation-2 compile time of a two-generation FFT search.  Generation 1
   (14 random parents) warms the stage cache; generation 2 is 14
   crossover/mutation children (2 elites) plus two rounds of the hill
   climb's neighbourhood around the most expensive parent, which stands in
   for the incumbent best.  The stream is timed three ways: cold (a fresh
   front end per genome with the stage cache off, so no front-end or
   prefix reuse), the staged path on its first visit (only generation 1
   cached), and the staged path warm (the generation itself resident).
   Warm must beat cold by 2x, the first visit must beat it at all, and the
   first visit must hit cached prefixes.  The cold and staged binaries are
   compared genome by genome in test_lir's pinned compile digest. *)
let compile_gate () =
  let module Compile = Repro_lir.Compile in
  let module Stagecache = Repro_lir.Stagecache in
  let module Genome = Repro_search.Genome in
  let module Rng = Repro_util.Rng in
  let app = fft () in
  let env = P.make_eval_env app (Option.get (P.capture_once app)) in
  let fe = env.P.frontend in
  let dx = env.P.dx and region = env.P.region in
  let profile =
    Repro_capture.Typeprof.(digest env.P.typeprof, lookup env.P.typeprof)
  in
  let rng = Rng.create 42 in
  let n_parents = 14 and n_children = 14 in
  let parents =
    List.init n_parents (fun _ -> Genome.dedup_adjacent (Genome.random rng))
  in
  let parent () = List.nth parents (Rng.int rng n_parents) in
  let children =
    List.init n_children (fun i ->
        if i < 2 then List.nth parents i
        else
          Genome.mutate rng ~gene_prob:0.1
            (Genome.crossover rng (parent ()) (parent ())))
  in
  let parent_cost g =
    (* total recorded pass work of a parent, read back from the stage
       cache warmed below; 0 when the compile aborted (no full entry) *)
    let frontend = Compile.frontend_digest fe in
    let fps = Stagecache.fingerprints ~frontend (Genome.to_spec g) in
    List.fold_left
      (fun acc mid ->
         match Stagecache.lookup ~frontend ~mid ~fps with
         | Some (k, e) when k = Array.length fps ->
           acc + Array.fold_left ( + ) 0 e.Stagecache.sc_charges
         | _ -> acc)
      0 region
  in
  let neighborhood best =
    (* one hill-climb round: every single-gene deletion plus six
       parameter-tweak mutants *)
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
  let compile_all compile gs =
    List.iter
      (fun g ->
         match compile (Genome.to_spec g) with
         | (_ : Repro_lir.Binary.t) -> ()
         | exception Compile.Compile_error _ -> ()
         | exception Compile.Compile_timeout -> ())
      gs
  in
  let staged spec = Compile.llvm_binary fe spec region in
  let cold spec =
    Compile.llvm_binary (Compile.frontend ~profile dx) spec region
  in
  Stagecache.reset ();
  compile_all staged parents;
  let best =
    List.fold_left
      (fun acc g -> if parent_cost g > parent_cost acc then g else acc)
      (List.hd parents) (List.tl parents)
  in
  let children =
    children @ List.concat (List.init 2 (fun _ -> neighborhood best))
  in
  (* prefix reuse of one honest generation-2 compile *)
  Stagecache.reset ();
  compile_all staged parents;
  let hits0 = (Stagecache.stats ()).Stagecache.prefix_hits in
  compile_all staged children;
  let hits = (Stagecache.stats ()).Stagecache.prefix_hits - hits0 in
  (* wall-clock; per-iteration cache preparation is excluded *)
  let time_gen2 ~prepare compile =
    let iters = 4 in
    prepare ();
    compile_all compile children;
    let total = ref 0.0 in
    for _ = 1 to iters do
      prepare ();
      Gc.full_major ();
      let t0 = Clock.now () in
      compile_all compile children;
      total := !total +. Clock.elapsed t0
    done;
    !total *. 1e9 /. float_of_int iters
  in
  let cold_ns =
    Fun.protect ~finally:(fun () -> Stagecache.set_enabled true) @@ fun () ->
    Stagecache.set_enabled false;
    time_gen2 ~prepare:ignore cold
  in
  let first_ns =
    time_gen2
      ~prepare:(fun () ->
          Stagecache.reset ();
          compile_all staged parents)
      staged
  in
  let warm_ns = time_gen2 ~prepare:ignore staged in
  let warm = cold_ns /. warm_ns and first = cold_ns /. first_ns in
  let ok_warm =
    gate (warm >= 2.0)
      "compile  cold vs warm staged, FFT generation 2 (%d genomes): \
       %.2fx (bound >= 2.0x; cold %.1f ms, warm %.1f ms)"
      (List.length children) warm (cold_ns /. 1e6) (warm_ns /. 1e6)
  in
  let ok_first =
    gate (first > 1.0 && hits > 0)
      "compile  cold vs first visit: %.2fx with %d prefix hits \
       (bound > 1.0x and > 0 hits; first visit %.1f ms)"
      first hits (first_ns /. 1e6)
  in
  ok_warm && ok_first

(* ------------------------------- fleet ------------------------------ *)

(* FFT's quick GA (3 generations) over a 1,000-device fleet, corpus K=2,
   seed 7: evaluations per second at -j4 must beat -j1, unless the machine
   has a single core, where extra domains can only time-slice.  Each run
   compiles cold, or the second would get its compiles for free. *)
let fleet_gate () =
  let module Fleet = Repro_fleet.Fleet in
  let seed = 7 in
  let co = Option.get (P.capture_corpus ~seed ~k:2 (fft ())) in
  let cfg =
    { Fleet.default_config with
      Fleet.ga = { Repro_search.Ga.quick_config with generations = 3 } }
  in
  let evals_per_s jobs =
    Repro_lir.Stagecache.reset ();
    let t0 = Clock.now () in
    let r = Fleet.run ~jobs ~cache:true ~cfg ~seed ~devices:1000 co in
    let tasks = r.Fleet.opt.P.pool_stats.Repro_search.Evalpool.tasks in
    float_of_int tasks /. Clock.elapsed t0
  in
  let j1 = evals_per_s 1 in
  let j4 = evals_per_s 4 in
  let cores = Domain.recommended_domain_count () in
  gate (j4 > j1 || cores <= 1)
    "fleet    evals/s at 1,000 devices: -j4 %.1f vs -j1 %.1f on %d core(s) \
     (bound: -j4 faster, waived on 1 core)"
    j4 j1 cores

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "usage: bench/main.exe (no arguments; figures: repro experiment)";
    exit 2
  end;
  let replay = replay_gate () in
  let compile = compile_gate () in
  let fleet = fleet_gate () in
  if not (replay && compile && fleet) then exit 1
