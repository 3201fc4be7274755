module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Trace = Repro_util.Trace

type outcome =
  | Measured of { times : float array; size : int; key : string }
  | Compile_failed of string
  | Runtime_crashed of string
  | Runtime_hung
  | Wrong_output
  | Quarantined of string

type config = {
  population : int;
  generations : int;
  seed_retries : int;
  genome_mutation_prob : float;
  gene_mutation_prob : float;
  tournament_size : int;
  tournament_p : float;
  max_identical : int;
  no_improve_generations : int;
  elites : int;
  size_tiebreak_alpha : float;
}

let default_config = {
  population = 50;
  generations = 11;
  seed_retries = 3;
  genome_mutation_prob = 0.05;
  gene_mutation_prob = 0.05;
  tournament_size = 7;
  tournament_p = 0.9;
  max_identical = 100;
  no_improve_generations = 5;
  elites = 2;
  size_tiebreak_alpha = 0.05;
}

let quick_config = {
  default_config with
  population = 14;
  generations = 6;
  max_identical = 40;
  no_improve_generations = 4;
}

let config_fingerprint cfg =
  Printf.sprintf
    "pop=%d;gens=%d;seedr=%d;gmut=%h;pmut=%h;tsz=%d;tp=%h;maxid=%d;noimp=%d;\
     elites=%d;alpha=%h"
    cfg.population cfg.generations cfg.seed_retries cfg.genome_mutation_prob
    cfg.gene_mutation_prob cfg.tournament_size cfg.tournament_p
    cfg.max_identical cfg.no_improve_generations cfg.elites
    cfg.size_tiebreak_alpha

type eval_record = {
  ev_index : int;
  ev_generation : int;
  ev_genome : Genome.t;
  ev_outcome : outcome;
  ev_fitness : float option;
}

type result = {
  best : (Genome.t * float) option;
  history : eval_record list;
  evaluations : int;
  halted_early : string option;
}

(* Canonical history rendering: every float as its exact bit pattern, so
   equal digests mean byte-identical searches.  This is the digest the
   fleet coordinator, the checkpoint/resume property tests and the serve
   scheduler all compare. *)
let render_outcome = function
  | Measured m ->
    Printf.sprintf "M size=%d key=%s times=%s" m.size m.key
      (String.concat ","
         (List.map
            (fun t -> Printf.sprintf "%Lx" (Int64.bits_of_float t))
            (Array.to_list m.times)))
  | Compile_failed msg -> "CF " ^ msg
  | Runtime_crashed msg -> "RC " ^ msg
  | Runtime_hung -> "RH"
  | Wrong_output -> "WO"
  | Quarantined msg -> "Q " ^ msg

let render_record r =
  Printf.sprintf "%d|%d|%s|%s" r.ev_index r.ev_generation
    (Genome.to_string r.ev_genome)
    (render_outcome r.ev_outcome)

let history_digest result =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map render_record result.history)))

type individual = {
  genome : Genome.t;
  outcome : outcome;
  fitness : float option;      (* lower is better; None = discarded *)
}

(* Ranking: measured individuals first by (fitness, size under t-test
   tiebreak), failures last. *)
let better cfg a b =
  match a.outcome, b.outcome with
  | Measured ma, Measured mb ->
    let fa = Option.get a.fitness and fb = Option.get b.fitness in
    let ta = Stats.remove_outliers_mad ma.times in
    let tb = Stats.remove_outliers_mad mb.times in
    if Stats.significantly_less ~alpha:cfg.size_tiebreak_alpha ta tb then true
    else if Stats.significantly_less ~alpha:cfg.size_tiebreak_alpha tb ta then
      false
    else if ma.size <> mb.size then ma.size < mb.size
    else fa <= fb
  | Measured _,
    (Compile_failed _ | Runtime_crashed _ | Runtime_hung | Wrong_output
    | Quarantined _) ->
    true
  | (Compile_failed _ | Runtime_crashed _ | Runtime_hung | Wrong_output
    | Quarantined _), _ ->
    false

let sort_population cfg pop =
  List.sort (fun a b -> if better cfg a b then -1 else 1) pop

(* Draw [n] values from a side-effecting generator in index order.
   [List.init]'s argument evaluation order is unspecified, so using it
   directly on [rng] draws would tie the genome stream to the stdlib's
   implementation; this helper pins left-to-right order. *)
let init_in_order n f =
  let rec go k acc = if k >= n then List.rev acc else go (k + 1) (f k :: acc) in
  go 0 []

let run ?(seed_genomes = []) rng cfg ~evaluate_batch ?baseline_ms ?o3_ms () =
  let history = ref [] in
  let eval_index = ref 0 in
  let identical = ref 0 in
  let seen_keys = Hashtbl.create 64 in
  let halted = ref None in
  (* Evaluate one generation's genomes as a single batch, then replay the
     outcomes in evaluation order for the history and the
     identical-binaries halting rule, so the observable behaviour matches
     a sequential left-to-right evaluation of the same genomes. *)
  let evaluate generation genomes =
    Trace.span ~cat:"ga"
      ~args:[ ("generation", string_of_int generation);
              ("genomes", string_of_int (List.length genomes)) ]
      "ga:generation"
    @@ fun () ->
    let base = !eval_index in
    let tasks =
      Array.of_list (List.mapi (fun i g -> (base + 1 + i, g)) genomes)
    in
    let n = Array.length tasks in
    Trace.add "ga.evaluations" n;
    eval_index := base + n;
    let outcomes = evaluate_batch tasks in
    if Array.length outcomes <> n then
      invalid_arg "Ga.run: evaluate_batch returned a misaligned array";
    let inds = ref [] in
    for i = 0 to n - 1 do
      let ev_index, genome = tasks.(i) in
      let outcome = outcomes.(i) in
      (match outcome with
       | Measured m ->
         if Hashtbl.mem seen_keys m.key then begin
           incr identical;
           if !identical >= cfg.max_identical && !halted = None then
             halted := Some "identical-binaries limit reached"
         end
         else Hashtbl.replace seen_keys m.key ()
       | Compile_failed _ | Runtime_crashed _ | Runtime_hung | Wrong_output
       | Quarantined _ ->
         ());
      (* fitness: the MAD-filtered mean of the measured times (§4) *)
      let fitness =
        match outcome with
        | Measured m -> Some (Stats.robust_mean m.times)
        | Compile_failed _ | Runtime_crashed _ | Runtime_hung | Wrong_output
        | Quarantined _ ->
          None
      in
      history :=
        { ev_index; ev_generation = generation; ev_genome = genome;
          ev_outcome = outcome; ev_fitness = fitness }
        :: !history;
      inds := { genome; outcome; fitness } :: !inds
    done;
    List.rev !inds
  in
  let profitable ind =
    match ind.fitness, baseline_ms, o3_ms with
    | Some f, Some base, Some o3 -> f < base || f < o3
    | Some _, _, _ -> true
    | None, _, _ -> false
  in
  (* First generation: random, biased away from clearly unprofitable seeds
     by redrawing up to [seed_retries] times (§4), with redundant passes
     removed to keep genomes short.  The retries run as whole-population
     rounds: every slot whose latest draw is unprofitable redraws in the
     next round, so each round is one parallel batch. *)
  let seed_population () =
    let n = cfg.population in
    (* Warm-start seeds (e.g. from a fleet genome bank) fill the first
       slots of the very first seeding round; they are still evaluated and
       redrawn randomly if unprofitable, exactly like a random draw would
       be.  Seeded slots consume no RNG draws, so the genome stream stays
       a pure function of (rng, cfg, seed_genomes). *)
    let seeds = Array.of_list seed_genomes in
    let best = Array.make n None in
    let active = ref (List.init n Fun.id) in
    let round = ref 0 in
    while !active <> [] do
      let slots = !active in
      let slot_arr = Array.of_list slots in
      let draws =
        init_in_order (List.length slots) (fun k ->
            let slot = slot_arr.(k) in
            if !round = 0 && slot < Array.length seeds then
              Genome.dedup_adjacent seeds.(slot)
            else Genome.dedup_adjacent (Genome.random rng))
      in
      let inds = evaluate 0 draws in
      let continue_rev = ref [] in
      List.iter2
        (fun slot ind ->
           (match best.(slot) with
            | Some b when not (better cfg ind b) -> ()
            | Some _ | None -> best.(slot) <- Some ind);
           if (not (profitable ind)) && !round < cfg.seed_retries then
             continue_rev := slot :: !continue_rev)
        slots inds;
      active := List.rev !continue_rev;
      incr round
    done;
    Array.to_list (Array.map Option.get best)
  in
  let population = ref (seed_population ()) in
  let best_of pop =
    match sort_population cfg pop with
    | best :: _ when best.fitness <> None -> Some best
    | _ -> None
  in
  let global_best = ref (best_of !population) in
  let stale = ref 0 in
  let generation = ref 1 in
  while
    !generation < cfg.generations
    && !halted = None
    && !stale < cfg.no_improve_generations
  do
    let sorted = sort_population cfg !population in
    let measured = List.filter (fun i -> i.fitness <> None) sorted in
    let pool = if measured = [] then sorted else measured in
    let pool_arr = Array.of_list pool in
    let elites_arr =
      Array.of_list
        (List.filteri (fun i _ -> i < max cfg.elites 1) pool)
    in
    let fittest_arr =
      Array.of_list
        (List.filteri (fun i _ -> i <= List.length pool / 2) pool)
    in
    (* Tournament selection: best of [tournament_size] with prob p, else a
       random other candidate. *)
    let tournament () =
      let contenders =
        init_in_order cfg.tournament_size (fun _ -> Rng.pick rng pool_arr)
      in
      let sorted_c = sort_population cfg contenders in
      match sorted_c with
      | best :: rest ->
        if Rng.chance rng cfg.tournament_p || rest = [] then best
        else Rng.pick_list rng rest
      | [] -> assert false
    in
    (* Three mate-selection pipelines (§3.6). *)
    let pick_mate () =
      match Rng.int rng 3 with
      | 0 -> Rng.pick rng elites_arr
      | 1 -> Rng.pick rng fittest_arr
      | _ -> tournament ()
    in
    let elite_carryover =
      List.filteri (fun i _ -> i < cfg.elites) sorted
    in
    let n_new = cfg.population - List.length elite_carryover in
    (* Draw the whole brood before evaluating: the genome stream depends
       only on the GA RNG, never on evaluation scheduling. *)
    let children =
      init_in_order n_new (fun _ ->
          let a = pick_mate () in
          let b = pick_mate () in
          let child = Genome.crossover rng a.genome b.genome in
          if Rng.chance rng cfg.genome_mutation_prob then
            Genome.mutate rng ~gene_prob:cfg.gene_mutation_prob child
          else child)
    in
    let next = elite_carryover @ evaluate !generation children in
    population := next;
    (match best_of next, !global_best with
     | Some b, Some gb when better cfg b gb ->
       global_best := Some b;
       stale := 0
     | Some b, None ->
       global_best := Some b;
       stale := 0
     | _ -> incr stale);
    incr generation
  done;
  { best =
      Option.map (fun b -> (b.genome, Option.get b.fitness)) !global_best;
    history = List.rev !history;
    evaluations = !eval_index;
    halted_early = !halted }

let hill_climb ?(ev_base = 0) rng ~evaluate_batch (genome0, fit0) ~rounds =
  let next_index = ref ev_base in
  let best = ref (genome0, fit0) in
  for _ = 1 to rounds do
    let genome, _ = !best in
    let neighbors =
      (* all single-gene deletions *)
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) genome) genome
      (* parameter tweaks *)
      @ init_in_order 6 (fun _ -> Genome.mutate rng ~gene_prob:0.15 genome)
    in
    let candidates =
      List.filter (fun c -> List.length c >= Genome.min_length) neighbors
    in
    let base = !next_index in
    let tasks =
      Array.of_list (List.mapi (fun i c -> (base + 1 + i, c)) candidates)
    in
    next_index := base + Array.length tasks;
    let outcomes = evaluate_batch tasks in
    for i = 0 to Array.length tasks - 1 do
      match outcomes.(i) with
      | Measured m ->
        let f = Stats.robust_mean m.times in
        if f < snd !best then best := (snd tasks.(i), f)
      | Compile_failed _ | Runtime_crashed _ | Runtime_hung | Wrong_output
      | Quarantined _ ->
        ()
    done
  done;
  !best

(* ----------------------- cooperative stepping ----------------------- *)

(* Invert control over a whole search without touching its code: the body
   runs inside an effect handler where [evaluate_batch] performs an
   effect, so the search suspends at exactly the points where it would
   block on evaluation and the caller decides how (and when) each batch
   is satisfied — live on an eval pool, replayed from a checkpoint
   journal, or interleaved with other tenants by the serve scheduler. *)

type 'r step =
  | Step_done of 'r
  | Step_eval of (int * Genome.t) array * (outcome array -> 'r step)

type _ Effect.t +=
  | Eval_batch : (int * Genome.t) array -> outcome array Effect.t

let coop body =
  let open Effect.Deep in
  match_with
    (fun () ->
       Step_done
         (body ~evaluate_batch:(fun tasks ->
              Effect.perform (Eval_batch tasks))))
    ()
    { retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Eval_batch tasks ->
             Some
               (fun (k : (a, _) continuation) ->
                  Step_eval (tasks, fun outcomes -> continue k outcomes))
           | _ -> None) }
