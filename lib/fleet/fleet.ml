module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Trace = Repro_util.Trace
module App = Repro_apps.Registry
module Genome = Repro_search.Genome
module Ga = Repro_search.Ga
module Pipeline = Repro_core.Pipeline
module Cost = Repro_vm.Cost

type config = {
  ga : Ga.config;
  replicas : int;
  samples_per_device : int;
}

(* 7 devices x 3 samples = 21 pooled points per genome: the widened
   per-device sigmas (DVFS up to ~2.2x) average out to a fitness estimate
   about as tight as the single-device pipeline's 10 samples at base
   sigma, which is what makes fleet search competitive at equal
   evaluation budget. *)
let default_config =
  { ga = Ga.quick_config; replicas = 7; samples_per_device = 3 }

type result = {
  opt : Pipeline.optimized;
  devices : int;
  capable : int;
  ticks : int;
  avail_trace : int list;
  empty_rounds : int;
  fleet_samples : int;
  bank_seeds : int;
  winner_ms : float option;
  history_digest : string;
}

(* One device's contribution to one evaluation: a small batch of replay
   samples whose noise stream is pure in (device noise seed, ev_index) and
   whose sigma is widened by the device's DVFS multiplier.  The mean stays
   anchored to the deterministic replay cycles (lognormal with mu = 0), so
   heterogeneous devices vote on the same underlying quantity. *)
let device_samples cfg (d : Device.t) ~ev_index cycles =
  let rng = Rng.of_pair d.Device.noise_seed ev_index in
  let ms =
    float_of_int cycles /. float_of_int Cost.default.Cost.cycles_per_ms
  in
  let sigma = Pipeline.noise_sigma *. d.Device.dvfs in
  Array.init cfg.samples_per_device (fun _ ->
      ms *. Rng.lognormal rng ~mu:0.0 ~sigma)

let run ?jobs ?cache ?(sched_seed = 0) ?bank ?(cfg = default_config) ~seed
    ~devices (corpus : Pipeline.corpus) =
  let app_name = corpus.Pipeline.co_app.App.name in
  Trace.span ~cat:"fleet"
    ~args:[ ("app", app_name); ("devices", string_of_int devices) ]
    "fleet:run"
  @@ fun () ->
  if devices < 1 then invalid_arg "Fleet.run: devices must be >= 1";
  let fleet = Device.fleet ~fleet_seed:seed devices in
  let capable =
    Array.of_list
      (List.filter
         (fun d -> Device.has_app d app_name)
         (Array.to_list fleet))
  in
  (* Device 0 has every app installed, so [capable] is never empty. *)
  assert (Array.length capable > 0);
  Trace.add "fleet.devices" devices;
  let avail_trace = ref [] in
  let empty_rounds = ref 0 in
  let fleet_samples = ref 0 in
  (* The session's finish policy: batch [t] is availability round [t]. *)
  let finish env ~batch tasks =
    Trace.incr "fleet.batches";
    let online =
      Array.of_list
        (List.filter
           (fun d -> Device.available d ~gen:batch)
           (Array.to_list capable))
    in
    let avail =
      if Array.length online > 0 then online
      else begin
        incr empty_rounds;
        Trace.incr "fleet.empty_rounds";
        capable
      end
    in
    avail_trace := Array.length avail :: !avail_trace;
    Array.map
      (fun (ev_index, core) ->
         match core with
         | Pipeline.Core_measured { cycles; size; key } ->
           let n = Array.length avail in
           let k = min cfg.replicas n in
           (* Deterministic rotation over the id-sorted available set:
              assignment depends only on (ev_index, available set). *)
           let assigned =
             Array.init k (fun j -> avail.((ev_index + j) mod n))
           in
           Trace.add "fleet.assignments" k;
           (* Process devices in a sched_seed-shuffled order to model an
              arbitrary arrival order; samples are pure per (device,
              ev_index), so this provably cannot change the result. *)
           let order = Array.copy assigned in
           Rng.shuffle (Rng.of_pair sched_seed ev_index) order;
           let by_id = Hashtbl.create 8 in
           Array.iter
             (fun d ->
                Hashtbl.replace by_id d.Device.id
                  (device_samples cfg d ~ev_index cycles))
             order;
           (* Aggregate in device-id order: the pooled sample vector is
              independent of scheduling. *)
           let ids =
             List.sort compare
               (Array.to_list (Array.map (fun d -> d.Device.id) assigned))
           in
           let batches =
             Array.of_list (List.map (Hashtbl.find by_id) ids)
           in
           let times = Stats.pool_samples batches in
           fleet_samples := !fleet_samples + Array.length times;
           Trace.add "fleet.samples" (Array.length times);
           Ga.Measured { times; size; key }
         | core -> Pipeline.outcome_of_core env ~ev_index core)
      tasks
  in
  let seed_genomes =
    match bank with
    | None -> []
    | Some bank ->
      let seeds =
        Bank.lookup bank ~app:app_name ~bucket:(Device.bucket fleet.(0))
      in
      let seeds =
        List.filteri (fun i _ -> i < cfg.ga.Ga.population) seeds
      in
      Trace.add "fleet.bank_seeds" (List.length seeds);
      seeds
  in
  let opt =
    Pipeline.run_session
      (Pipeline.start_search ~seed ~cfg:cfg.ga ?jobs ?cache
         ~corpus:corpus.Pipeline.co_entries ~seed_genomes ~finish
         corpus.Pipeline.co_app corpus.Pipeline.co_primary)
  in
  (* Publish the winner to the bank under every device-feature bucket the
     capable fleet contains: the fleet as a whole validated it. *)
  (match (bank, opt.Pipeline.best_genome, opt.Pipeline.best_fitness) with
   | Some bank, Some genome, Some fitness_ms ->
     let buckets =
       List.sort_uniq compare
         (Array.to_list (Array.map Device.bucket capable))
     in
     List.iter
       (fun bucket -> Bank.record bank ~app:app_name ~bucket genome ~fitness_ms)
       buckets
   | _ -> ());
  { opt; devices; capable = Array.length capable;
    ticks = List.length !avail_trace; avail_trace = List.rev !avail_trace;
    empty_rounds = !empty_rounds; fleet_samples = !fleet_samples;
    bank_seeds = List.length seed_genomes;
    winner_ms =
      Option.bind opt.Pipeline.best_binary
        (Pipeline.replay_ms opt.Pipeline.env);
    history_digest = Ga.history_digest opt.Pipeline.ga }
