(* The device-fleet layer (lib/fleet): deterministic device profiles, the
   fleet coordinator's byte-identical-history contract across -j / device
   scheduling / availability interleaving, warm starts from the genome
   bank, and the bank's save/load round-trip including the corrupted-file
   quarantine path. *)

module Rng = Repro_util.Rng
module Genome = Repro_search.Genome
module Ga = Repro_search.Ga
module P = Repro_core.Pipeline
module App = Repro_apps.Registry
module Device = Repro_fleet.Device
module Bank = Repro_fleet.Bank
module Fleet = Repro_fleet.Fleet

let app name = Option.get (App.find name)

(* Shared cheap capture (FFT, no secondary inputs). *)
let corpus = lazy (Option.get (P.capture_corpus ~k:1 (app "FFT")))

(* Small search so the determinism matrix stays fast. *)
let tiny_cfg =
  { Fleet.ga = { Ga.quick_config with Ga.population = 6; generations = 2 };
    replicas = 3; samples_per_device = 2 }

(* ---------------------------- devices ------------------------------- *)

let test_device_profiles_deterministic () =
  let a = Device.fleet ~fleet_seed:11 64 in
  let b = Device.fleet ~fleet_seed:11 64 in
  Array.iteri
    (fun i d ->
       Alcotest.(check string) "profile" (Device.describe d)
         (Device.describe b.(i));
       Alcotest.(check int) "id" i d.Device.id)
    a;
  (* a different fleet seed gives different profiles somewhere *)
  let c = Device.fleet ~fleet_seed:12 64 in
  Alcotest.(check bool) "seed matters" true
    (Array.exists2
       (fun x y -> Device.describe x <> Device.describe y)
       a c)

let test_device_zero_is_reference () =
  let d = Device.make ~fleet_seed:999 0 in
  Alcotest.(check (float 1e-9)) "dvfs" 1.0 d.Device.dvfs;
  Alcotest.(check bool) "always available" true
    (List.for_all (fun g -> Device.available d ~gen:g)
       (List.init 50 Fun.id));
  List.iter
    (fun name ->
       Alcotest.(check bool) ("has " ^ name) true (Device.has_app d name))
    App.names

(* Availability prefix property: the state at generation g is a pure
   function of (device profile, g) — querying other generations first, in
   any order, cannot change it. *)
let prop_availability_pure =
  QCheck.Test.make ~name:"availability pure in (device seed, gen)" ~count:200
    QCheck.(triple (int_bound 1000) (int_bound 200) (int_bound 100))
    (fun (fleet_seed, id, g) ->
       let d = Device.make ~fleet_seed id in
       let direct = Device.available d ~gen:g in
       (* walk an arbitrary prefix of other generations first *)
       for g' = g - 1 downto max 0 (g - 10) do
         ignore (Device.available d ~gen:g')
       done;
       let again = Device.available (Device.make ~fleet_seed id) ~gen:g in
       direct = again)

(* ------------------------- fleet determinism ------------------------ *)

let run_fleet ?(sched_seed = 0) ?bank ~jobs ~cache () =
  Fleet.run ~jobs ~cache ~sched_seed ?bank ~cfg:tiny_cfg ~seed:5 ~devices:40
    (Lazy.force corpus)

(* The tiny config's GA history digest, pinned (search seed 5,
   environment seed 6, capture seed 42): any change to it is a change to
   fleet search results. *)
let pinned_tiny_digest = "0da4d8eab3e9864fbfcbd4ba0d7888b4"

let test_fleet_history_pinned () =
  Alcotest.(check string) "tiny-config history digest" pinned_tiny_digest
    (run_fleet ~jobs:1 ~cache:true ()).Fleet.history_digest

let test_fleet_history_deterministic () =
  let base = run_fleet ~jobs:1 ~cache:true () in
  Alcotest.(check bool) "found a winner" true
    (base.Fleet.opt.P.ga.Ga.best <> None);
  List.iter
    (fun (label, r) ->
       Alcotest.(check string) label base.Fleet.history_digest
         r.Fleet.history_digest)
    [ ("jobs 4", run_fleet ~jobs:4 ~cache:true ());
      ("no cache", run_fleet ~jobs:2 ~cache:false ());
      ("sched seed 123", run_fleet ~sched_seed:123 ~jobs:1 ~cache:true ());
      ("sched seed 9001", run_fleet ~sched_seed:9001 ~jobs:4 ~cache:true ()) ]

(* qcheck over the scheduling knobs: any (jobs, sched_seed) pair agrees
   with the canonical -j1 digest. *)
let prop_fleet_sched_invariant =
  let canonical = lazy (run_fleet ~jobs:1 ~cache:true ()).Fleet.history_digest
  in
  QCheck.Test.make ~name:"fleet digest invariant under jobs/sched" ~count:4
    QCheck.(pair (int_range 1 4) (int_bound 10_000))
    (fun (jobs, sched_seed) ->
       (run_fleet ~sched_seed ~jobs ~cache:true ()).Fleet.history_digest
       = Lazy.force canonical)

let test_single_device_fleet_runs () =
  (* devices = 1: only the reference device; no round can be empty *)
  let r = run_fleet ~jobs:1 ~cache:true () in
  let solo =
    Fleet.run ~jobs:1 ~cache:true ~cfg:tiny_cfg ~seed:5 ~devices:1
      (Lazy.force corpus)
  in
  Alcotest.(check int) "capable" 1 solo.Fleet.capable;
  Alcotest.(check int) "no fallback rounds" 0 solo.Fleet.empty_rounds;
  Alcotest.(check bool) "same evaluation count" true
    (solo.Fleet.opt.P.ga.Ga.evaluations = r.Fleet.opt.P.ga.Ga.evaluations)

(* Convergence at equal budget: FFT, seed 7, corpus K=2, the quick GA cut
   to 3 generations.  The winner of a 1,000-device fleet search, replayed
   on the reference device, lands within 5% of the single-device
   search's winner of the same configuration. *)
let test_fleet_converges_to_single_device () =
  let seed = 7 in
  let co = Option.get (P.capture_corpus ~seed ~k:2 (app "FFT")) in
  let cfg =
    { Fleet.default_config with
      Fleet.ga = { Ga.quick_config with Ga.generations = 3 } }
  in
  let fleet = Fleet.run ~jobs:1 ~cache:true ~cfg ~seed ~devices:1000 co in
  let single =
    P.run_session
      (P.start_search ~seed ~cfg:cfg.Fleet.ga ~corpus:co.P.co_entries
         (app "FFT") co.P.co_primary)
  in
  match
    (fleet.Fleet.winner_ms,
     Option.bind single.P.best_binary (P.replay_ms single.P.env))
  with
  | Some f, Some s ->
    if f > s *. 1.05 then
      Alcotest.failf "fleet winner %.3f ms vs single-device %.3f ms" f s
  | _ -> Alcotest.fail "a search found no verified winner"

(* ----------------------------- warm start --------------------------- *)

let test_bank_warm_start_seeds_ga () =
  let bank = Bank.create () in
  let cold = run_fleet ~bank ~jobs:1 ~cache:true () in
  Alcotest.(check int) "cold run used no seeds" 0 cold.Fleet.bank_seeds;
  Alcotest.(check bool) "winner recorded" true (Bank.size bank > 0);
  let warm = run_fleet ~bank ~jobs:1 ~cache:true () in
  Alcotest.(check bool) "warm run seeded" true (warm.Fleet.bank_seeds > 0);
  (* the warm search must still be deterministic in itself *)
  let bank2 = Bank.create () in
  ignore (run_fleet ~bank:bank2 ~jobs:1 ~cache:true ());
  let warm2 = run_fleet ~bank:bank2 ~jobs:4 ~cache:true () in
  Alcotest.(check string) "warm digest stable across jobs"
    warm.Fleet.history_digest warm2.Fleet.history_digest

(* Warm-start seed_genomes: seeded slots consume no RNG draws, so the random
   remainder of the first round is the same stream as an unseeded run. *)
let test_seed_genomes_consume_no_draws () =
  let evaluate_batch tasks =
    Array.map
      (fun (ev_index, g) ->
         let n = List.length g in
         Ga.Measured
           { times = [| float_of_int (10 + n) |]; size = n;
             key = string_of_int (n * 1000 + (ev_index mod 7)) })
      tasks
  in
  let cfg = { Ga.quick_config with Ga.population = 8; generations = 1 } in
  let genomes_of_round0 r =
    List.filter_map
      (fun rec_ ->
         if rec_.Ga.ev_generation = 0 then
           Some (Genome.to_string rec_.Ga.ev_genome)
         else None)
      r.Ga.history
  in
  let unseeded = Ga.run (Rng.create 3) cfg ~evaluate_batch () in
  let seeds = [ Genome.random (Rng.create 77); Genome.random (Rng.create 78) ]
  in
  let seeded = Ga.run ~seed_genomes:seeds (Rng.create 3) cfg ~evaluate_batch ()
  in
  let u = genomes_of_round0 unseeded and s = genomes_of_round0 seeded in
  Alcotest.(check int) "same round size" (List.length u) (List.length s);
  let nseeds = List.length seeds in
  List.iteri
    (fun i gs ->
       if i < nseeds then
         Alcotest.(check string)
           (Printf.sprintf "slot %d is the seed" i)
           (Genome.to_string
              (Genome.dedup_adjacent (List.nth seeds i)))
           gs
       else
         (* seeded slots consumed no draws: the random tail is the
            unseeded stream, shifted *)
         Alcotest.(check string)
           (Printf.sprintf "slot %d matches the unseeded stream" i)
           (List.nth u (i - nseeds)) gs)
    s

(* ------------------------------- bank ------------------------------- *)

let mk_genome seed = Genome.random (Rng.create seed)

let test_bank_best_per_key () =
  let bank = Bank.create () in
  let g1 = mk_genome 1 and g2 = mk_genome 2 in
  Bank.record bank ~app:"FFT" ~bucket:"fast" g1 ~fitness_ms:5.0;
  Bank.record bank ~app:"FFT" ~bucket:"fast" g2 ~fitness_ms:3.0;
  Bank.record bank ~app:"FFT" ~bucket:"fast" g1 ~fitness_ms:9.0;
  (match Bank.entries bank with
   | [ e ] ->
     Alcotest.(check string) "best kept" (Genome.to_string g2)
       (Genome.to_string e.Bank.e_genome);
     Alcotest.(check (float 1e-9)) "best fitness" 3.0 e.Bank.e_fitness_ms;
     Alcotest.(check int) "all wins counted" 3 e.Bank.e_wins
   | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  (* lookup prefers the matching bucket, then the app's other buckets *)
  Bank.record bank ~app:"FFT" ~bucket:"slow" (mk_genome 3) ~fitness_ms:1.0;
  Bank.record bank ~app:"LU" ~bucket:"fast" (mk_genome 4) ~fitness_ms:0.5;
  (match Bank.lookup bank ~app:"FFT" ~bucket:"fast" with
   | first :: _ ->
     Alcotest.(check string) "own bucket first" (Genome.to_string g2)
       (Genome.to_string first)
   | [] -> Alcotest.fail "lookup empty");
  Alcotest.(check int) "other apps excluded" 2
    (List.length (Bank.lookup bank ~app:"FFT" ~bucket:"fast"))

let with_temp_file f =
  let file = Filename.temp_file "repro_bank" ".store" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

let test_bank_roundtrip () =
  with_temp_file @@ fun file ->
  let bank = Bank.create () in
  Bank.record bank ~app:"FFT" ~bucket:"fast" (mk_genome 1) ~fitness_ms:2.5;
  Bank.record bank ~app:"FFT" ~bucket:"slow" (mk_genome 2) ~fitness_ms:4.125;
  Bank.record bank ~app:"LU" ~bucket:"mid" (mk_genome 3) ~fitness_ms:1.75;
  Bank.save bank file;
  let reloaded, warnings = Bank.load file in
  Alcotest.(check (list string)) "no warnings" [] warnings;
  Alcotest.(check int) "entry count" (Bank.size bank) (Bank.size reloaded);
  List.iter2
    (fun a b ->
       Alcotest.(check string) "app" a.Bank.e_app b.Bank.e_app;
       Alcotest.(check string) "bucket" a.Bank.e_bucket b.Bank.e_bucket;
       Alcotest.(check int) "wins" a.Bank.e_wins b.Bank.e_wins;
       Alcotest.(check bool) "fitness bits" true
         (Int64.bits_of_float a.Bank.e_fitness_ms
          = Int64.bits_of_float b.Bank.e_fitness_ms);
       Alcotest.(check string) "genome" (Genome.to_string a.Bank.e_genome)
         (Genome.to_string b.Bank.e_genome))
    (Bank.entries bank) (Bank.entries reloaded);
  (* the serialization is byte-deterministic *)
  with_temp_file @@ fun file2 ->
  Bank.save reloaded file2;
  let bytes_of f = In_channel.with_open_bin f In_channel.input_all in
  Alcotest.(check bool) "byte-identical files" true
    (bytes_of file = bytes_of file2)

let prop_bank_roundtrip =
  QCheck.Test.make ~name:"bank save/load round-trip" ~count:30
    QCheck.(small_list (pair (int_bound 1000) (int_bound 2)))
    (fun records ->
       with_temp_file @@ fun file ->
       let bank = Bank.create () in
       List.iter
         (fun (seed, b) ->
            let bucket = [| "fast"; "mid"; "slow" |].(b) in
            Bank.record bank ~app:"FFT" ~bucket (mk_genome seed)
              ~fitness_ms:(1.0 +. float_of_int seed))
         records;
       Bank.save bank file;
       let reloaded, warnings = Bank.load file in
       warnings = []
       && Bank.size reloaded = Bank.size bank
       && List.for_all2
            (fun a b ->
               Genome.to_string a.Bank.e_genome
               = Genome.to_string b.Bank.e_genome
               && a.Bank.e_fitness_ms = b.Bank.e_fitness_ms)
            (Bank.entries bank) (Bank.entries reloaded))

let test_bank_missing_file () =
  let bank, warnings = Bank.load "/nonexistent/repro-bank.store" in
  Alcotest.(check int) "empty" 0 (Bank.size bank);
  Alcotest.(check (list string)) "no warnings" [] warnings

let test_bank_corrupted_file_quarantined () =
  with_temp_file @@ fun file ->
  let bank = Bank.create () in
  Bank.record bank ~app:"FFT" ~bucket:"fast" (mk_genome 1) ~fitness_ms:2.0;
  Bank.save bank file;
  (* flip one byte in the middle of the store file *)
  let bytes = Bytes.of_string (In_channel.with_open_bin file In_channel.input_all)
  in
  let pos = Bytes.length bytes / 2 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_bytes oc bytes);
  P.reset_quarantine ();
  let reloaded, warnings = Bank.load file in
  Alcotest.(check int) "degrades to empty" 0 (Bank.size reloaded);
  Alcotest.(check bool) "warns" true (warnings <> []);
  let quarantined = P.quarantine_summary () in
  Alcotest.(check bool) "routed into the quarantine log" true
    (List.exists
       (fun e -> e.P.q_binary = "bank:" ^ file)
       quarantined);
  P.reset_quarantine ()

(* A path that exists but cannot be read as a file fails closed, like a
   damaged one, instead of raising out of the load. *)
let test_bank_directory_quarantined () =
  let dir = Filename.temp_dir "repro_bank" ".d" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  P.reset_quarantine ();
  let bank, warnings = Bank.load dir in
  Alcotest.(check int) "empty" 0 (Bank.size bank);
  Alcotest.(check bool) "warns" true (warnings <> []);
  Alcotest.(check bool) "routed into the quarantine log" true
    (List.exists
       (fun e -> e.P.q_binary = "bank:" ^ dir)
       (P.quarantine_summary ()));
  P.reset_quarantine ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_availability_pure; prop_fleet_sched_invariant;
      prop_bank_roundtrip ]

let () =
  Alcotest.run "fleet"
    [ ("devices",
       [ Alcotest.test_case "profiles deterministic" `Quick
           test_device_profiles_deterministic;
         Alcotest.test_case "device 0 is the reference" `Quick
           test_device_zero_is_reference ]);
      ("determinism",
       [ Alcotest.test_case "history digest pinned" `Quick
           test_fleet_history_pinned;
         Alcotest.test_case "history digest invariant" `Quick
           test_fleet_history_deterministic;
         Alcotest.test_case "single-device fleet" `Quick
           test_single_device_fleet_runs;
         Alcotest.test_case "1,000 devices within 5% of single" `Slow
           test_fleet_converges_to_single_device ]);
      ("warm start",
       [ Alcotest.test_case "bank seeds the GA" `Quick
           test_bank_warm_start_seeds_ga;
         Alcotest.test_case "seeds consume no RNG draws" `Quick
           test_seed_genomes_consume_no_draws ]);
      ("bank",
       [ Alcotest.test_case "best per key" `Quick test_bank_best_per_key;
         Alcotest.test_case "save/load round-trip" `Quick test_bank_roundtrip;
         Alcotest.test_case "missing file" `Quick test_bank_missing_file;
         Alcotest.test_case "corrupted file quarantined" `Quick
           test_bank_corrupted_file_quarantined;
         Alcotest.test_case "directory quarantined" `Quick
           test_bank_directory_quarantined ]);
      ("properties", qcheck_cases) ]
