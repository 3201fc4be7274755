(* Tests for the staged-compilation cache: canonical prefix identity
   shared with the Evalpool genome memo, byte-identical outcomes with the
   cache on or off at any worker count, exact work-limit boundary
   behaviour on warm replays, and LRU byte-budget eviction. *)

module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry
module Compile = Repro_lir.Compile
module Binary = Repro_lir.Binary
module Pipelines = Repro_lir.Pipelines
module Stagecache = Repro_lir.Stagecache
module Trace = Repro_util.Trace
module Rng = Repro_util.Rng

(* One capture + evaluation environment, shared by every test below. *)
let shared =
  lazy
    (let app = Option.get (App.find "FFT") in
     let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
     (app, cap, Pipeline.make_eval_env app cap))

let with_stage enabled f =
  let prev = Stagecache.enabled () in
  Stagecache.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Stagecache.set_enabled prev) f

let classify fe region g =
  match Compile.llvm_binary fe (Genome.to_spec g) region with
  | b -> "ok:" ^ Binary.digest b
  | exception Compile.Compile_error msg -> "error:" ^ msg
  | exception Compile.Compile_timeout -> "timeout"

(* --------------- canonical identity (satellite regression) ----------- *)

(* A genome whose raw and canonical renderings differ: "gvn" takes no
   parameters, so a stray argument is an arity mismatch the compiler
   rejects by count alone — the value is unobservable, and the canonical
   form folds it away.  The stage-cache fingerprints and the Evalpool
   genome memo must both treat the two variants as the same genome. *)
let test_canon_folds_unobservable_params () =
  let mk pass params = { Genome.g_pass = pass; g_params = params } in
  let base = [ mk "simplifycfg" [||]; mk "dce" [||] ] in
  let g1 = mk "gvn" [| 7 |] :: base in
  let g2 = mk "gvn" [| 9 |] :: base in
  Alcotest.(check bool) "raw renderings differ" true
    (Genome.to_string g1 <> Genome.to_string g2);
  Alcotest.(check string) "canonical identity equal" (Genome.canon g1)
    (Genome.canon g2);
  let _, _, env = Lazy.force shared in
  let fe = env.Pipeline.frontend in
  let fps g =
    Stagecache.fingerprints ~frontend:(Compile.frontend_digest fe)
      (Genome.to_spec g)
  in
  Alcotest.(check (array string)) "prefix fingerprints equal" (fps g1)
    (fps g2);
  Alcotest.(check string) "same compile outcome"
    (classify fe env.Pipeline.region g1)
    (classify fe env.Pipeline.region g2);
  (* the genome memo keys on the same canonical form: evaluating the
     second variant is a hit, not a compile *)
  let pool = Pipeline.make_core_pool ~jobs:1 ~cache:true env in
  let c1 = (Evalpool.evaluate_batch pool [| (0, g1) |]).(0) in
  let hits_before = (Evalpool.stats pool).Evalpool.genome_hits in
  let c2 = (Evalpool.evaluate_batch pool [| (1, g2) |]).(0) in
  let hits_after = (Evalpool.stats pool).Evalpool.genome_hits in
  Alcotest.(check int) "genome memo hit" (hits_before + 1) hits_after;
  Alcotest.(check bool) "equal pool cores" true (c1 = c2)

(* ------------- outcome transparency (qcheck property) ---------------- *)

(* STAGECACHE_COUNT overrides the per-property case budget. *)
let case_count =
  match
    Option.bind (Sys.getenv_opt "STAGECACHE_COUNT") int_of_string_opt
  with
  | Some n when n > 0 -> n
  | Some _ | None -> 5

let prop_outcomes_transparent =
  QCheck.Test.make
    ~name:"stage cache: batch outcomes identical on/off x -j1/-j4"
    ~count:case_count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let _, _, env = Lazy.force shared in
       let rng = Rng.create seed in
       let tasks =
         Array.init 5 (fun i -> (i, Genome.random rng))
       in
       let run ~stage ~jobs =
         with_stage stage @@ fun () ->
         Stagecache.reset ();
         let pool = Pipeline.make_core_pool ~jobs ~cache:false env in
         Array.to_list (Evalpool.evaluate_batch pool tasks)
       in
       let reference = run ~stage:true ~jobs:1 in
       List.for_all
         (fun (stage, jobs) -> run ~stage ~jobs = reference)
         [ (false, 1); (true, 4); (false, 4) ])

(* ------------------- work-limit boundary replay ----------------------- *)

(* A genome that times out exactly at the work limit must do so with the
   cache cold, warm (prefix replay), and disabled: recorded charges flow
   through the same counter and checks as a real run. *)
let test_work_limit_boundary () =
  let _, _, env = Lazy.force shared in
  let fe = env.Pipeline.frontend and region = env.Pipeline.region in
  let compile () = Compile.llvm_binary fe Pipelines.o2 region in
  let was_enabled = Trace.enabled () in
  Trace.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Trace.disable ())
  @@ fun () ->
  Stagecache.reset ();
  let w0 = Trace.counter_value "compile.work" in
  let b_ref = compile () in
  let w = Trace.counter_value "compile.work" - w0 in
  Alcotest.(check bool) "compile charged work" true (w > 0);
  let check_at label limit expect_timeout =
    match Compile.with_work_limit limit compile with
    | b ->
      Alcotest.(check bool) (label ^ ": completed") false expect_timeout;
      Alcotest.(check string)
        (label ^ ": identical binary")
        (Binary.digest b_ref) (Binary.digest b)
    | exception Compile.Compile_timeout ->
      Alcotest.(check bool) (label ^ ": timed out") true expect_timeout
  in
  (* warm: every method's full-length prefix is resident *)
  check_at "warm at limit" w false;
  check_at "warm one under" (w - 1) true;
  let s = Stagecache.stats () in
  Alcotest.(check bool) "warm replays were cache hits" true
    (s.Stagecache.prefix_hits > 0);
  (* cold: no cache at all, same boundary *)
  with_stage false @@ fun () ->
  check_at "cold at limit" w false;
  check_at "cold one under" (w - 1) true

(* ------------------------ LRU byte budget ----------------------------- *)

let test_lru_eviction_bounded () =
  let _, _, env = Lazy.force shared in
  let fe = env.Pipeline.frontend and region = env.Pipeline.region in
  let rng = Rng.create 7 in
  let gs = List.init 8 (fun _ -> Genome.random rng) in
  let reference =
    with_stage false @@ fun () -> List.map (classify fe region) gs
  in
  let budget = 1024 * 1024 in
  let cap0 = Stagecache.capacity_bytes () in
  Stagecache.set_capacity_bytes budget;
  Fun.protect ~finally:(fun () -> Stagecache.set_capacity_bytes cap0)
  @@ fun () ->
  Stagecache.reset ();
  let r1 = List.map (classify fe region) gs in
  let r2 = List.map (classify fe region) gs in
  let s = Stagecache.stats () in
  Alcotest.(check bool) "evictions occurred" true (s.Stagecache.evictions > 0);
  Alcotest.(check bool) "residency stayed under budget" true
    (s.Stagecache.bytes_held <= budget);
  Alcotest.(check (list string)) "first pass unchanged" reference r1;
  Alcotest.(check (list string)) "thrashing repeat unchanged" reference r2

(* -------------------- end-to-end search identity ---------------------- *)

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 3; max_identical = 30 }

let test_search_identity_across_stage_cache () =
  let app, cap, _ = Lazy.force shared in
  let run ~stage ~jobs ~cache =
    with_stage stage @@ fun () ->
    Stagecache.reset ();
    Pipeline.(
      search_digest
        (run_session
           (start_search ~seed:11 ~cfg:tiny_cfg ~jobs ~cache app cap)))
  in
  let reference = run ~stage:true ~jobs:1 ~cache:true in
  List.iter
    (fun (stage, jobs, cache) ->
       Alcotest.(check string)
         (Printf.sprintf "stage=%b -j%d cache=%b identical" stage jobs cache)
         reference
         (run ~stage ~jobs ~cache))
    [ (false, 1, true); (true, 4, false); (false, 4, false) ]

let () =
  Alcotest.run "stagecache"
    [ ("canon",
       [ Alcotest.test_case "arity-mismatch params fold away" `Quick
           test_canon_folds_unobservable_params ]);
      ("transparency",
       [ QCheck_alcotest.to_alcotest prop_outcomes_transparent ]);
      ("work-limit",
       [ Alcotest.test_case "boundary identical warm/cold/off" `Quick
           test_work_limit_boundary ]);
      ("lru",
       [ Alcotest.test_case "eviction under a tiny budget" `Quick
           test_lru_eviction_bounded ]);
      ("search",
       [ Alcotest.test_case "optimize identical across stage cache" `Slow
           test_search_identity_across_stage_cache ]) ]
