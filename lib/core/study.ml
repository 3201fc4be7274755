module App = Repro_apps.Registry
module Ga = Repro_search.Ga
module Faults = Repro_util.Faults

type t = {
  app : App.t;
  capture : Pipeline.captured;
  opt : Pipeline.optimized;
  speedups : Pipeline.speedups;
}

(* Keyed on (app name, source digest, every config field, seed, armed
   fault spec): a same-named app with other code, or a run under fault
   injection, gets its own study.  [jobs]/[cache] are deliberately absent
   from the memo key: the pool guarantees identical results for every
   combination, so studies computed at different parallelism levels are
   interchangeable. *)
let cache = Hashtbl.create 32

let run ?(seed = 7) ?(cfg = Ga.quick_config) ?jobs ?cache:pool_cache app =
  let key =
    ( app.App.name, Digest.string app.App.source, Ga.config_fingerprint cfg,
      seed, Faults.armed () )
  in
  match Hashtbl.find_opt cache key with
  | Some s -> s
  | None ->
    let study =
      match
        Pipeline.start ?jobs ?cache:pool_cache (Pipeline.request ~seed ~cfg app)
      with
      | None -> None
      | Some (co, session) ->
        let opt = Pipeline.run_session session in
        let speedups = Pipeline.measure_speedups app opt in
        Some { app; capture = co.Pipeline.co_primary; opt; speedups }
    in
    Hashtbl.replace cache key study;
    study

let clear_cache () = Hashtbl.reset cache
