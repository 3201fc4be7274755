(* Tests for genomes and the genetic algorithm, using synthetic evaluators
   so the search behaviour is checked independently of the compiler. *)

open Repro_search
module Rng = Repro_util.Rng

let rng () = Rng.create 42

(* ------------------------------ genome ------------------------------ *)

let test_random_genome_length () =
  let r = rng () in
  for _ = 1 to 100 do
    let g = Genome.random r in
    let n = List.length g in
    Alcotest.(check bool) "length in bounds" true
      (n >= Genome.min_length && n <= Genome.max_length)
  done

let test_genome_spec_roundtrip () =
  let r = rng () in
  let g = Genome.random r in
  let spec = Genome.to_spec g in
  Alcotest.(check int) "same length" (List.length g) (List.length spec);
  List.iter2
    (fun gene (name, params) ->
       Alcotest.(check string) "pass name" gene.Genome.g_pass name;
       Alcotest.(check bool) "params shared" true (gene.Genome.g_params == params))
    g spec

let test_mutation_respects_bounds () =
  let r = rng () in
  for _ = 1 to 100 do
    let g = Genome.mutate r ~gene_prob:0.5 (Genome.random r) in
    let n = List.length g in
    Alcotest.(check bool) "length in bounds" true
      (n >= Genome.min_length && n <= Genome.max_length)
  done

let test_mutated_params_valid () =
  (* unlike the initial random draw, mutation keeps parameters in range *)
  let r = rng () in
  for _ = 1 to 50 do
    let base = List.init 6 (fun _ -> Genome.random_gene r) in
    let g = Genome.mutate r ~gene_prob:1.0 base in
    List.iter
      (fun gene ->
         match Repro_lir.Passes.find gene.Genome.g_pass with
         | pass ->
           List.iteri
             (fun i pr ->
                if i < Array.length gene.Genome.g_params then begin
                  let v = gene.Genome.g_params.(i) in
                  Alcotest.(check bool) "param in range" true
                    (v >= pr.Repro_lir.Passes.pmin && v <= pr.Repro_lir.Passes.pmax)
                end)
             pass.Repro_lir.Passes.params
         | exception Not_found -> Alcotest.fail "unknown pass from mutation")
      g
  done

let test_crossover_mixes () =
  let r = rng () in
  let a = Genome.random r and b = Genome.random r in
  let child = Genome.crossover r a b in
  Alcotest.(check bool) "child not empty" true
    (List.length child >= Genome.min_length)

let test_dedup_adjacent () =
  let gene = { Genome.g_pass = "dce"; g_params = [||] } in
  let other = { Genome.g_pass = "gvn"; g_params = [||] } in
  Alcotest.(check int) "dedup" 3
    (List.length (Genome.dedup_adjacent [ gene; gene; other; gene ]))

(* -------------------------------- GA -------------------------------- *)

(* The synthetic evaluators are pure functions of the genome, so a batch
   is a plain map over its tasks. *)
let batch evaluate tasks = Array.map (fun (_, genome) -> evaluate genome) tasks

(* Synthetic landscape: fitness depends on which passes are present;
   "gc-check-elim" is worth a lot, unsafe passes fail verification. *)
let synthetic_eval genome =
  let has name = List.exists (fun g -> g.Genome.g_pass = name) genome in
  if has "fast-math" then Ga.Wrong_output
  else if has "unsafe-bce" then Ga.Runtime_crashed "boom"
  else begin
    let base = 10.0 in
    let t = base
            -. (if has "gc-check-elim" then 3.0 else 0.0)
            -. (if has "gvn" then 1.5 else 0.0)
            -. (if has "dce" then 1.0 else 0.0)
            +. (0.05 *. float_of_int (List.length genome))
    in
    let key =
      String.concat "," (List.sort compare (List.map (fun g -> g.Genome.g_pass) genome))
    in
    Ga.Measured
      { times = Array.make 10 t; size = List.length genome * 10; key }
  end

let test_ga_improves () =
  let r = rng () in
  let cfg = { Ga.quick_config with Ga.population = 12; generations = 6 } in
  let result = Ga.run r cfg ~evaluate_batch:(batch synthetic_eval) () in
  match result.Ga.best with
  | None -> Alcotest.fail "no best found"
  | Some (genome, fit) ->
    Alcotest.(check bool) "found a decent point" true (fit < 9.0);
    Alcotest.(check bool) "best avoids unsafe" true
      (not (List.exists (fun g -> g.Genome.g_pass = "fast-math") genome))

let test_ga_history_ordered () =
  let r = rng () in
  let cfg = { Ga.quick_config with Ga.population = 8; generations = 4 } in
  let result = Ga.run r cfg ~evaluate_batch:(batch synthetic_eval) () in
  let indices = List.map (fun e -> e.Ga.ev_index) result.Ga.history in
  Alcotest.(check (list int)) "indices sequential"
    (List.init (List.length indices) (fun i -> i + 1))
    indices;
  Alcotest.(check int) "evaluations counted" result.Ga.evaluations
    (List.length indices)

let test_ga_halts_on_identical () =
  (* an evaluator that always returns the same binary triggers the
     identical-binaries halting rule *)
  let eval _ =
    Ga.Measured { times = Array.make 10 5.0; size = 10; key = "same" }
  in
  let r = rng () in
  let cfg = { Ga.quick_config with Ga.population = 10; generations = 50;
                                   max_identical = 15 } in
  let result = Ga.run r cfg ~evaluate_batch:(batch eval) () in
  Alcotest.(check bool) "halted early" true (result.Ga.halted_early <> None)

let test_ga_all_failures () =
  let eval _ = Ga.Compile_failed "nope" in
  let r = rng () in
  let cfg = { Ga.quick_config with Ga.population = 6; generations = 3 } in
  let result = Ga.run r cfg ~evaluate_batch:(batch eval) () in
  Alcotest.(check bool) "no best when everything fails" true
    (result.Ga.best = None)

let test_ga_size_tiebreak () =
  (* two pass-sets with identical times: the smaller binary must win *)
  let eval genome =
    let n = List.length genome in
    Ga.Measured
      { times = Array.make 10 5.0; size = n; key = string_of_int n }
  in
  let r = rng () in
  let cfg = { Ga.quick_config with Ga.population = 14; generations = 6 } in
  let result = Ga.run r cfg ~evaluate_batch:(batch eval) () in
  match result.Ga.best with
  | Some (genome, _) ->
    Alcotest.(check bool) "short genome preferred" true
      (List.length genome <= 6)
  | None -> Alcotest.fail "no best"

let test_hill_climb_improves_or_keeps () =
  let r = rng () in
  let start = Genome.random r in
  let fit0 =
    match synthetic_eval start with
    | Ga.Measured { times; _ } -> Repro_util.Stats.mean times
    | _ -> 20.0
  in
  let _, fit =
    Ga.hill_climb r ~evaluate_batch:(batch synthetic_eval) (start, fit0)
      ~rounds:2
  in
  Alcotest.(check bool) "no worse" true (fit <= fit0)

let () =
  Alcotest.run "search"
    [ ("genome",
       [ Alcotest.test_case "random length" `Quick test_random_genome_length;
         Alcotest.test_case "spec roundtrip" `Quick test_genome_spec_roundtrip;
         Alcotest.test_case "mutation bounds" `Quick test_mutation_respects_bounds;
         Alcotest.test_case "mutated params valid" `Quick test_mutated_params_valid;
         Alcotest.test_case "crossover" `Quick test_crossover_mixes;
         Alcotest.test_case "dedup adjacent" `Quick test_dedup_adjacent ]);
      ("ga",
       [ Alcotest.test_case "improves" `Quick test_ga_improves;
         Alcotest.test_case "history ordered" `Quick test_ga_history_ordered;
         Alcotest.test_case "halts on identical" `Quick test_ga_halts_on_identical;
         Alcotest.test_case "all failures" `Quick test_ga_all_failures;
         Alcotest.test_case "size tiebreak" `Quick test_ga_size_tiebreak;
         Alcotest.test_case "hill climb" `Quick test_hill_climb_improves_or_keeps ]) ]
