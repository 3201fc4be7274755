(* Round-robin multi-app scheduler.  See the interface for the model.
   Scheduling lives on the calling domain; only batch compile/verify work
   is parallel (Evalpool's process-wide domain pool), so per-job state
   needs no locking. *)

module App = Repro_apps.Registry
module Ga = Repro_search.Ga
module Trace = Repro_util.Trace

type request = Pipeline.request

let request = Pipeline.request

type job = {
  j_request : request;
  j_quarantine : Pipeline.quarantine_log;
  mutable j_session : Pipeline.search_session option;
  mutable j_outcome : [ `Running | `Finished | `Failed of string | `Unstarted ];
  mutable j_turns : int;
  mutable j_rounds_present : int;
}

type t = {
  jobs : int;
  cache : bool;
  max_active : int;
  queue_capacity : int;
  abort_after : int option;
  queue : job Queue.t;
  mutable active : job list;        (* admission order *)
  mutable all_rev : job list;       (* submission order, newest first *)
  mutable rounds : int;
  mutable concurrent_rounds : int;
  mutable peak_active : int;
  mutable live_batches : int;
  mutable rejected : int;
}

let create ?(jobs = 1) ?(cache = true) ?(queue_capacity = 16) ?abort_after
    ~max_active () =
  if max_active < 1 then invalid_arg "Serve.create: max_active < 1";
  { jobs; cache; max_active; queue_capacity; abort_after;
    queue = Queue.create (); active = []; all_rev = []; rounds = 0;
    concurrent_rounds = 0; peak_active = 0; live_batches = 0; rejected = 0 }

(* Admission: the capture and search construction run here, on the
   scheduling domain, through [Pipeline.start] — the same capture/search
   seed rule as the one-shot [repro optimize] CLI, so a served job's
   digest is comparable 1:1 with a standalone run's. *)
let start_job t job =
  Trace.incr "serve.admitted";
  match
    Pipeline.start ~jobs:t.jobs ~cache:t.cache ~quarantine:job.j_quarantine job.j_request
  with
  | None -> job.j_outcome <- `Failed "no replayable hot region"
  | Some (_, s) ->
    job.j_session <- Some s;
    job.j_outcome <- `Running;
    t.active <- t.active @ [ job ];
    t.peak_active <- max t.peak_active (List.length t.active)
  | exception e -> job.j_outcome <- `Failed (Printexc.to_string e)

type admission = [ `Admitted | `Queued of int | `Rejected ]

let submit t request : admission =
  let job =
    { j_request = request;
      j_quarantine = Pipeline.create_quarantine_log ();
      j_session = None; j_outcome = `Unstarted; j_turns = 0;
      j_rounds_present = 0 }
  in
  t.all_rev <- job :: t.all_rev;
  if List.length t.active < t.max_active then begin
    start_job t job;
    `Admitted
  end
  else if Queue.length t.queue < t.queue_capacity then begin
    Queue.push job t.queue;
    `Queued (Queue.length t.queue)
  end
  else begin
    t.rejected <- t.rejected + 1;
    Trace.incr "serve.rejected";
    `Rejected
  end

let admit_from_queue t =
  while List.length t.active < t.max_active && not (Queue.is_empty t.queue) do
    start_job t (Queue.pop t.queue)
  done

(* One turn: drain any checkpoint-replayed batches (they cost nothing and
   must not count as this round's unit of work), then exactly one live
   batch — the fairness quantum. *)
let turn t job =
  match job.j_session with
  | None -> ()
  | Some s ->
    job.j_turns <- job.j_turns + 1;
    let rec step () =
      match Pipeline.search_step s with
      | `Replayed -> step ()
      | `Live ->
        t.live_batches <- t.live_batches + 1;
        (match t.abort_after with
         | Some n when t.live_batches >= n -> raise Checkpoint.Injected_abort
         | _ -> ())
      | `Finished _ -> job.j_outcome <- `Finished
    in
    (try step () with
     | Checkpoint.Injected_abort as e -> raise e
     | e -> job.j_outcome <- `Failed (Printexc.to_string e))

let drive t =
  admit_from_queue t;
  while t.active <> [] do
    t.rounds <- t.rounds + 1;
    Trace.incr "serve.rounds";
    let stepping = t.active in
    if List.length stepping >= 2 then
      t.concurrent_rounds <- t.concurrent_rounds + 1;
    List.iter
      (fun job ->
         job.j_rounds_present <- job.j_rounds_present + 1;
         turn t job)
      stepping;
    t.active <-
      List.filter (fun job -> job.j_outcome = `Running) t.active;
    admit_from_queue t
  done

let shutdown (_ : t) = ()

let jobs_in_order t = List.rev t.all_rev

type report = {
  rp_app : string;
  rp_checkpoint : string option;
  rp_outcome : [ `Finished | `Failed of string | `Unstarted ];
  rp_digest : string option;
  rp_best_ms : float option;
  rp_evaluations : int;
  rp_live_batches : int;
  rp_replayed_batches : int;
  rp_turns : int;
  rp_quarantined : int;
  rp_warnings : string list;
}

let report_of job =
  let session = job.j_session in
  let result = Option.bind session Pipeline.session_result in
  { rp_app = job.j_request.Pipeline.r_app.App.name;
    rp_checkpoint = job.j_request.Pipeline.r_checkpoint;
    rp_outcome =
      (match job.j_outcome with
       | `Finished -> `Finished
       | `Failed why -> `Failed why
       | `Running -> `Failed "still running (aborted)"
       | `Unstarted -> `Unstarted);
    rp_digest = Option.map Pipeline.search_digest result;
    rp_best_ms = Option.bind result (fun r -> r.Pipeline.best_fitness);
    rp_evaluations =
      (match result with
       | Some r -> r.Pipeline.ga.Ga.evaluations
       | None -> 0);
    rp_live_batches =
      (match session with
       | Some s -> Pipeline.session_live_batches s
       | None -> 0);
    rp_replayed_batches =
      (match session with
       | Some s -> Pipeline.session_replayed_batches s
       | None -> 0);
    rp_turns = job.j_turns;
    rp_quarantined =
      List.length (Pipeline.quarantine_summary ~log:job.j_quarantine ());
    rp_warnings =
      (match session with
       | Some s -> Pipeline.session_warnings s
       | None -> []) }

let reports t = List.map report_of (jobs_in_order t)

let quarantine_of t app_name =
  List.concat_map
    (fun job ->
       if job.j_request.Pipeline.r_app.App.name = app_name then
         Pipeline.quarantine_summary ~log:job.j_quarantine ()
       else [])
    (jobs_in_order t)

type stats = {
  st_rounds : int;
  st_concurrent_rounds : int;
  st_peak_active : int;
  st_live_batches : int;
  st_fairness_spread : float;
  st_rejected : int;
}

let stats t =
  let ratios =
    List.filter_map
      (fun job ->
         if job.j_rounds_present > 0 then
           Some (float_of_int job.j_turns /. float_of_int job.j_rounds_present)
         else None)
      (jobs_in_order t)
  in
  let spread =
    match ratios with
    | [] -> 0.
    | r :: rest ->
      List.fold_left max r rest -. List.fold_left min r rest
  in
  { st_rounds = t.rounds; st_concurrent_rounds = t.concurrent_rounds;
    st_peak_active = t.peak_active; st_live_batches = t.live_batches;
    st_fairness_spread = spread; st_rejected = t.rejected }
