(* Tests for the parallel memoized evaluation engine (Evalpool) and its
   determinism contract: for a fixed seed, the GA's full evaluation history
   is byte-identical whatever the worker count and whether or not the
   genome/binary memos are enabled.  This is what lets `-j N` and caching
   be user-transparent accelerators rather than semantics changes. *)

module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry
module Blockexec = Repro_lir.Blockexec
module Trace = Repro_util.Trace

(* ----------------------- end-to-end determinism --------------------- *)

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

let test_search_determinism app_name seed () =
  let app = Option.get (App.find app_name) in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let run ~jobs ~cache =
    Pipeline.(
      search_digest
        (run_session (start_search ~seed ~cfg:tiny_cfg ~jobs ~cache app cap)))
  in
  let reference = run ~jobs:1 ~cache:true in
  Alcotest.(check string) "-j 4 identical to -j 1" reference
    (run ~jobs:4 ~cache:true);
  Alcotest.(check string) "--no-cache identical to cached" reference
    (run ~jobs:1 ~cache:false);
  Alcotest.(check string) "-j 4 --no-cache identical too" reference
    (run ~jobs:4 ~cache:false)

(* ------------------- engine transparency of the search ---------------- *)

let with_engine e f =
  let prev = Blockexec.default_engine () in
  Blockexec.set_default_engine e;
  Fun.protect ~finally:(fun () -> Blockexec.set_default_engine prev) f

(* The replay engine is one more user-transparent accelerator: a full FFT
   search under the block-fused executor is byte-identical to the reference
   interpretation, whatever the worker count and memo setting.  Any fusion
   or check-hoisting bug that perturbed a single cycle anywhere in the
   search would show up here as a diverging history. *)
let test_engine_determinism () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let run ~engine ~jobs ~cache =
    with_engine engine @@ fun () ->
    Pipeline.(
      search_digest
        (run_session
           (start_search ~seed:3 ~cfg:tiny_cfg ~jobs ~cache app cap)))
  in
  let reference = run ~engine:Blockexec.Ref ~jobs:1 ~cache:true in
  List.iter
    (fun (jobs, cache) ->
       Alcotest.(check string)
         (Printf.sprintf "fused -j%d cache=%b = ref" jobs cache)
         reference
         (run ~engine:Blockexec.Fused ~jobs ~cache))
    [ (1, true); (4, true); (1, false); (4, false) ]

(* [verify_core] loads each binary once, so a corpus search builds exactly
   one plan per pool verification plus one per baseline replay of its
   environment (Android and -O3), at any worker count.  Nothing outlives
   the evaluation: the same search run again plans everything again.  The
   reference engine never plans. *)
let test_one_plan_per_evaluation () =
  let app = Option.get (App.find "FFT") in
  let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:2 app) in
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.reset (); Trace.disable ())
  @@ fun () ->
  let search engine jobs =
    Trace.reset ();
    let o =
      with_engine engine @@ fun () ->
      Pipeline.(
        run_session
          (start_search ~seed:3 ~cfg:tiny_cfg ~jobs ~cache:true
             ~corpus:co.co_entries app co.co_primary))
    in
    Alcotest.(check bool) "corpus checks ran" true
      (Trace.counter_value "verify.corpus_checks" > 0);
    (o.Pipeline.pool_stats.Evalpool.verifies + 2,
     Trace.counter_value "blockexec.plan_builds")
  in
  let runs = List.map (search Blockexec.Fused) [ 1; 1; 4 ] in
  List.iter2
    (fun what (evaluations, plans) ->
       Alcotest.(check int) (what ^ ": one plan per evaluation") evaluations
         plans)
    [ "-j1"; "-j1 again"; "-j4" ] runs;
  Alcotest.(check int) "a fresh pool re-verifies the same binaries"
    (fst (List.hd runs)) (fst (List.nth runs 1));
  Alcotest.(check int) "ref engine builds no plan" 0
    (snd (search Blockexec.Ref 1))

(* Every parallel stage runs on the one process-wide domain pool, whose
   workers outlive a batch: the worker spans of a traced -j2 search come
   from exactly two domains (the caller and one pool worker) however many
   parallel stages ran.  Spawning per stage would add a domain id per
   stage. *)
let test_workers_persist_across_batches () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.reset (); Trace.disable ())
  @@ fun () ->
  ignore
    Pipeline.(run_session (start_search ~seed:3 ~cfg:tiny_cfg ~jobs:2 app cap));
  let worker_begins =
    List.filter
      (fun ev ->
         ev.Trace.ev_name = "evalpool:worker" && ev.Trace.ev_ph = Trace.B)
      (Trace.events ())
  in
  let parallel_stages =
    List.length
      (List.filter
         (fun ev -> List.assoc_opt "worker" ev.Trace.ev_args = Some "1")
         worker_begins)
  in
  Alcotest.(check bool) "several parallel stages ran" true
    (parallel_stages >= 4);
  Alcotest.(check int) "all from two domains" 2
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun ev -> ev.Trace.ev_tid) worker_begins)))

(* ----------------------- synthetic pool fixtures --------------------- *)

(* Synthetic stages over toy "binaries" (the genome itself): compile and
   verify count their invocations so the memo behaviour is observable. *)
let counting_pool ?(jobs = 1) ?(cache = true) ?memo_budget ?key_of () =
  let compiles = ref 0 and verifies = ref 0 in
  let key = match key_of with Some k -> k | None -> Genome.to_string in
  let pool =
    Evalpool.create ~jobs ~cache ?memo_budget ~canon:Genome.to_string
      ~compile:(fun g -> incr compiles; Ok g)
      ~key_of:key
      ~verify:(fun g -> incr verifies; String.length (Genome.to_string g))
      ()
  in
  (pool, compiles, verifies)

(* a batch's results paired with their tasks' evaluation indices *)
let evaluate pool tasks =
  Array.map2 (fun (ev_index, _) core -> (ev_index, core)) tasks
    (Evalpool.evaluate_batch pool tasks)

let gene p = { Genome.g_pass = p; g_params = [| 0 |] }
let ga = [ gene "alpha" ]
let gb = [ gene "beta"; gene "gamma" ]

let test_genome_memo_accounting () =
  let pool, compiles, verifies = counting_pool () in
  let out = evaluate pool [| (1, ga); (2, ga); (3, gb) |] in
  Alcotest.(check int) "aligned ev_index 1" 1 (fst out.(0));
  Alcotest.(check bool) "duplicate genome, same core" true
    (snd out.(0) = snd out.(1));
  Alcotest.(check int) "two unique compiles" 2 !compiles;
  Alcotest.(check int) "two unique verifies" 2 !verifies;
  (* a later batch is served entirely from the memo *)
  let again = evaluate pool [| (9, ga) |] in
  Alcotest.(check int) "cache hit keeps ev_index" 9 (fst again.(0));
  Alcotest.(check int) "no new compile" 2 !compiles;
  let s = Evalpool.stats pool in
  Alcotest.(check int) "tasks" 4 s.Evalpool.tasks;
  Alcotest.(check int) "batches" 2 s.Evalpool.batches;
  Alcotest.(check int) "genome hits" 2 s.Evalpool.genome_hits;
  Alcotest.(check int) "genome misses" 2 s.Evalpool.genome_misses

let test_key_memo_reuses_verification () =
  (* two distinct genomes compiling to the same binary key: both compile,
     only one verified replay runs (the identical-binaries case) *)
  let pool, compiles, verifies =
    counting_pool ~key_of:(fun _ -> "same-binary") ()
  in
  let out = evaluate pool [| (1, ga); (2, gb) |] in
  Alcotest.(check int) "both compiled" 2 !compiles;
  Alcotest.(check int) "verified once" 1 !verifies;
  Alcotest.(check bool) "sibling gets the owner's core" true
    (snd out.(0) = snd out.(1));
  Alcotest.(check int) "key reuse counted" 1
    (Evalpool.stats pool).Evalpool.key_hits

let test_cache_disabled_is_honest () =
  let pool, compiles, verifies = counting_pool ~cache:false () in
  let out = evaluate pool [| (1, ga); (2, ga); (3, gb) |] in
  Alcotest.(check int) "every task compiled" 3 !compiles;
  Alcotest.(check int) "every task verified" 3 !verifies;
  Alcotest.(check bool) "results still agree" true
    (snd out.(0) = snd out.(1));
  let s = Evalpool.stats pool in
  Alcotest.(check int) "no hits without cache" 0
    (s.Evalpool.genome_hits + s.Evalpool.key_hits)

(* --------------------- bounded (LRU) memo budget ---------------------- *)

let genome_of_int i = [ { Genome.g_pass = "p" ^ string_of_int i;
                          g_params = [| i |] } ]

let test_memo_budget_bounds_and_evicts () =
  let pool, compiles, _ = counting_pool ~memo_budget:2 () in
  (* three distinct genomes through a 2-entry budget: someone is evicted *)
  let batch =
    Array.init 3 (fun i -> (i + 1, genome_of_int i))
  in
  ignore (Evalpool.evaluate_batch pool batch);
  Alcotest.(check int) "three unique compiles" 3 !compiles;
  Alcotest.(check bool) "evictions happened" true
    ((Evalpool.stats pool).Evalpool.evictions > 0);
  (* the victim was the least-recently-used entry (genome 0): asking for
     it again recompiles, while the freshest entry is still memoized *)
  ignore (Evalpool.evaluate_batch pool [| (10, genome_of_int 2) |]);
  Alcotest.(check int) "fresh entry still cached" 3 !compiles;
  ignore (Evalpool.evaluate_batch pool [| (11, genome_of_int 0) |]);
  Alcotest.(check int) "evicted entry recompiles" 4 !compiles

(* Eviction must never change what the search *sees* — an LRU-bounded
   memo is a cache, not a semantics change.  A full FFT GA under an
   absurdly small budget (constant evictions) must be byte-identical to
   the default-budget reference. *)
let test_memo_budget_digest_invariant () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let env = Pipeline.make_eval_env app cap in
  let search ?memo_budget () =
    let pool =
      Evalpool.create ?memo_budget ~canon:Genome.canon
        ~compile:(Pipeline.compile_core env) ~key_of:Pipeline.binary_key
        ~verify:(Pipeline.verify_core env)
        ()
    in
    let evaluate_batch tasks =
      Array.map2
        (fun (ev_index, _) core -> Pipeline.outcome_of_core env ~ev_index core)
        tasks (Evalpool.evaluate_batch pool tasks)
    in
    let ga = Ga.run (Repro_util.Rng.create 3) tiny_cfg ~evaluate_batch () in
    (Ga.history_digest ga, Evalpool.stats pool)
  in
  let reference, _ = search () in
  let bounded, stats = search ~memo_budget:4 () in
  Alcotest.(check string) "tiny budget, identical search" reference bounded;
  Alcotest.(check bool) "and the budget really bit" true
    (stats.Evalpool.evictions > 0)

let test_parallel_matches_sequential () =
  (* pure stages, so domains can run them without shared state *)
  let make jobs =
    Evalpool.create ~jobs ~cache:false ~canon:Genome.to_string
      ~compile:(fun g ->
          if List.length g mod 7 = 3 then Error (-1)
          else Ok g)
      ~key_of:Genome.to_string
      ~verify:(fun g -> Hashtbl.hash (Genome.to_string g))
      ()
  in
  let rng = Repro_util.Rng.create 42 in
  let tasks =
    Array.init 40 (fun i -> (i + 1, Genome.random rng))
  in
  let seq = evaluate (make 1) tasks in
  let par = evaluate (make 4) tasks in
  Alcotest.(check bool) "4 domains, same outputs" true (seq = par);
  Alcotest.(check int) "aligned with input" 40 (fst seq.(39))

(* ---------------- the two-pass algorithm, as a reference ------------- *)

(* The [evaluate_batch] that [Evalpool]'s one [resolve] step replaced,
   kept here as a test-only, sequential reference over the same LRU
   tables: a genome pass with an in-batch [seen] table, a key pass with
   an owner table, a sibling fill, the binary-memo adds, then the
   genome-memo adds through an in-batch result table. *)
module Two_pass = struct
  module Lru = Repro_util.Lru

  type counts = {
    mutable batches : int;
    mutable tasks : int;
    mutable genome_hits : int;
    mutable genome_misses : int;
    mutable key_hits : int;
    mutable compiles : int;
    mutable verifies : int;
    mutable evictions : int;
  }

  type ('bin, 'core) t = {
    cache : bool;
    compile : Genome.t -> ('bin, 'core) result;
    key_of : 'bin -> string;
    verify : 'bin -> 'core;
    genome_cache : 'core Lru.t;
    key_cache : 'core Lru.t;
    c : counts;
  }

  let create ~cache ~memo_budget ~compile ~key_of ~verify =
    let c =
      { batches = 0; tasks = 0; genome_hits = 0; genome_misses = 0;
        key_hits = 0; compiles = 0; verifies = 0; evictions = 0 }
    in
    let memo () =
      Lru.create ~budget:memo_budget ~weight:(fun _ -> 1)
        ~on_evict:(fun _ _ -> c.evictions <- c.evictions + 1)
        ()
    in
    { cache; compile; key_of; verify; genome_cache = memo ();
      key_cache = memo (); c }

  let evaluate_batch t tasks =
    let n = Array.length tasks in
    t.c.batches <- t.c.batches + 1;
    t.c.tasks <- t.c.tasks + n;
    let canons = Array.map (fun (_, g) -> Genome.to_string g) tasks in
    let cores = Array.make n None in
    let seen_in_batch = Hashtbl.create 16 in
    let rep_rev = ref [] in
    Array.iteri
      (fun i c ->
         match if t.cache then Lru.find t.genome_cache c else None with
         | Some core ->
           cores.(i) <- Some core;
           t.c.genome_hits <- t.c.genome_hits + 1
         | None ->
           if t.cache && Hashtbl.mem seen_in_batch c then
             t.c.genome_hits <- t.c.genome_hits + 1
           else begin
             if t.cache then Hashtbl.add seen_in_batch c ();
             rep_rev := i :: !rep_rev;
             t.c.genome_misses <- t.c.genome_misses + 1
           end)
      canons;
    let reps = Array.of_list (List.rev !rep_rev) in
    let nrep = Array.length reps in
    let compiled = Array.map (fun i -> t.compile (snd tasks.(i))) reps in
    t.c.compiles <- t.c.compiles + nrep;
    let rep_core = Array.make nrep None and rep_bin = Array.make nrep None in
    Array.iteri
      (fun k -> function
         | Error core -> rep_core.(k) <- Some core
         | Ok bin -> rep_bin.(k) <- Some (bin, t.key_of bin))
      compiled;
    let key_owner = Hashtbl.create 16 in
    let verify_rev = ref [] in
    Array.iteri
      (fun k -> function
         | None -> ()
         | Some (_, key) ->
           (match if t.cache then Lru.find t.key_cache key else None with
            | Some core ->
              rep_core.(k) <- Some core;
              t.c.key_hits <- t.c.key_hits + 1
            | None ->
              if t.cache && Hashtbl.mem key_owner key then
                t.c.key_hits <- t.c.key_hits + 1
              else begin
                if t.cache then Hashtbl.add key_owner key k;
                verify_rev := k :: !verify_rev
              end))
      rep_bin;
    let vreps = Array.of_list (List.rev !verify_rev) in
    Array.iter
      (fun k -> rep_core.(k) <- Some (t.verify (fst (Option.get rep_bin.(k)))))
      vreps;
    t.c.verifies <- t.c.verifies + Array.length vreps;
    Array.iteri
      (fun k bin ->
         match bin, rep_core.(k) with
         | Some (_, key), None ->
           rep_core.(k) <- rep_core.(Hashtbl.find key_owner key)
         | _, _ -> ())
      rep_bin;
    if t.cache then
      Array.iteri
        (fun k bin ->
           match bin, rep_core.(k) with
           | Some (_, key), Some core -> Lru.add t.key_cache key core
           | _, _ -> ())
        rep_bin;
    let batch_results = Hashtbl.create 16 in
    Array.iteri
      (fun k i ->
         let core = Option.get rep_core.(k) in
         cores.(i) <- Some core;
         Hashtbl.replace batch_results canons.(i) core;
         if t.cache then Lru.add t.genome_cache canons.(i) core)
      reps;
    Array.mapi
      (fun i -> function
         | Some c -> c
         | None -> Hashtbl.find batch_results canons.(i))
      cores
end

(* Random sequences of batches over a ten-genome pool, so that genomes
   repeat within and across batches; genomes 3 and 7 fail to compile,
   and binary keys collide across distinct genomes (the key is the
   genome's index mod 4, while the verified core depends on the binary
   itself).  Under the cache on and off, every small budget and one and
   two workers, the pool returns the reference's cores batch by batch
   and ends with the same counts. *)
let prop_resolve_matches_two_pass =
  let compile g =
    let i = (List.hd g).Genome.g_params.(0) in
    if i = 3 || i = 7 then Error (-i) else Ok i
  and key_of i = string_of_int (i mod 4)
  and verify i = (100 * i) + 1 in
  QCheck.Test.make ~name:"resolve = the two-pass algorithm" ~count:300
    QCheck.(
      quad bool
        (oneofl [ Some 1; Some 2; Some 3; None ])
        (int_range 1 2)
        (list_of_size Gen.(int_range 1 6)
           (list_of_size Gen.(int_range 0 8) (int_bound 9))))
    (fun (cache, memo_budget, jobs, batches) ->
       let pool =
         Evalpool.create ~jobs ~cache ?memo_budget ~canon:Genome.to_string
           ~compile ~key_of ~verify ()
       in
       let reference =
         Two_pass.create ~cache
           (* 65536 is the pool's default budget *)
           ~memo_budget:(Option.value memo_budget ~default:65536)
           ~compile ~key_of ~verify
       in
       let same_cores =
         List.for_all
           (fun batch ->
              let tasks =
                Array.of_list (List.mapi (fun i g -> (i, genome_of_int g)) batch)
              in
              Evalpool.evaluate_batch pool tasks
              = Two_pass.evaluate_batch reference tasks)
           batches
       in
       let s = Evalpool.stats pool and c = reference.Two_pass.c in
       same_cores
       && s.Evalpool.batches = c.Two_pass.batches
       && s.Evalpool.tasks = c.Two_pass.tasks
       && s.Evalpool.genome_hits = c.Two_pass.genome_hits
       && s.Evalpool.genome_misses = c.Two_pass.genome_misses
       && s.Evalpool.key_hits = c.Two_pass.key_hits
       && s.Evalpool.compiles = c.Two_pass.compiles
       && s.Evalpool.verifies = c.Two_pass.verifies
       && s.Evalpool.evictions = c.Two_pass.evictions)

let test_worker_errors_propagate () =
  let pool =
    Evalpool.create ~jobs:2 ~cache:false ~canon:Genome.to_string
      ~compile:(fun _ -> failwith "compile stage exploded")
      ~key_of:Genome.to_string
      ~verify:(fun g -> String.length (Genome.to_string g))
      ()
  in
  Alcotest.check_raises "stage failure surfaces"
    (Failure "compile stage exploded")
    (fun () -> ignore (Evalpool.evaluate_batch pool [| (1, ga); (2, gb) |]))

let () =
  Alcotest.run "evalpool"
    [ ("determinism",
       [ Alcotest.test_case "FFT seed 3" `Quick
           (test_search_determinism "FFT" 3);
         Alcotest.test_case "FFT seed 11" `Quick
           (test_search_determinism "FFT" 11);
         Alcotest.test_case "BubbleSort seed 7" `Quick
           (test_search_determinism "BubbleSort" 7) ]);
      ("engine",
       [ Alcotest.test_case "ref = fused across jobs/cache" `Quick
           test_engine_determinism;
         Alcotest.test_case "one plan per evaluation" `Quick
           test_one_plan_per_evaluation ]);
      ("memoization",
       [ Alcotest.test_case "genome memo accounting" `Quick
           test_genome_memo_accounting;
         Alcotest.test_case "binary-key reuse" `Quick
           test_key_memo_reuses_verification;
         Alcotest.test_case "cache disabled" `Quick
           test_cache_disabled_is_honest;
         Alcotest.test_case "memo budget bounds and evicts" `Quick
           test_memo_budget_bounds_and_evicts;
         Alcotest.test_case "eviction never changes the search" `Quick
           test_memo_budget_digest_invariant;
         QCheck_alcotest.to_alcotest prop_resolve_matches_two_pass ]);
      ("parallelism",
       [ Alcotest.test_case "parallel = sequential" `Quick
           test_parallel_matches_sequential;
         Alcotest.test_case "errors propagate" `Quick
           test_worker_errors_propagate;
         Alcotest.test_case "worker domains persist across batches" `Quick
           test_workers_persist_across_batches ]) ]
