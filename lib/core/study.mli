(** Per-application study: capture + search + measurements, computed once
    and shared by every experiment that needs it (Figures 7, 8, 9). *)

type t = {
  app : Repro_apps.Registry.t;
  capture : Pipeline.captured;
  opt : Pipeline.optimized;
  speedups : Pipeline.speedups;
}

val run :
  ?seed:int -> ?cfg:Repro_search.Ga.config -> ?jobs:int -> ?cache:bool ->
  Repro_apps.Registry.t -> t option
(** [None] if the app exposes no replayable hot region.  Results are
    memoized per (app name and source, GA config, seed, armed fault
    spec), so figure drivers share work.
    [jobs]/[cache] control the evaluation pool only; they cannot change
    results, so they are not part of the memo key. *)

val clear_cache : unit -> unit
