(* Domain-based parallel evaluation of GA generations with two-level
   memoization.  See the interface for the determinism contract.

   Scheduling: one [resolve] step maps the batch's canonical genomes onto
   the genome memo and picks a representative per unseen genome; those
   compile in parallel.  The same step maps the compiled binaries' keys
   onto the binary memo; the representatives of the unseen keys verify in
   parallel.  Workers only ever run the caller-supplied [compile]/[verify]
   stages on disjoint tasks; all cache reads and writes happen on the
   calling domain, so no synchronization beyond the work-queue index is
   needed and results are reproducible by construction.

   Every parallel stage runs on one process-wide [Domainpool], created by
   the first stage that needs a second worker and widened when a later
   stage asks for more.  Its workers outlive a batch, so no stage pays
   for spawning domains.

   The memos are entry-budgeted {!Repro_util.Lru} tables, owned by the
   calling domain.  Eviction can only cause re-computation of a
   deterministic stage, never a different result, so the search-history
   digest is invariant under any budget.

   Tracing: each batch is a span on the calling domain and each worker
   wraps its work loop in a span on its own domain, so an exported trace
   shows the real parallelism (distinct tids) and the cache short-circuits
   (counters). *)

module Trace = Repro_util.Trace
module Clock = Repro_util.Clock
module Lru = Repro_util.Lru

type worker = {
  w_id : int;
  w_tasks : int;
  w_busy_s : float;
}

type stats = {
  batches : int;
  tasks : int;
  genome_hits : int;
  genome_misses : int;
  key_hits : int;
  compiles : int;
  verifies : int;
  evictions : int;
  workers : worker list;
}

type counters = {
  mutable c_batches : int;
  mutable c_tasks : int;
  mutable c_genome_hits : int;
  mutable c_genome_misses : int;
  mutable c_key_hits : int;
  mutable c_compiles : int;
  mutable c_verifies : int;
  mutable c_evictions : int;
  c_workers : (int, (int * float) ref) Hashtbl.t;  (* id -> tasks, busy *)
}

let fresh_counters () = {
  c_batches = 0; c_tasks = 0; c_genome_hits = 0; c_genome_misses = 0;
  c_key_hits = 0; c_compiles = 0; c_verifies = 0; c_evictions = 0;
  c_workers = Hashtbl.create 8;
}

(* Process-wide totals, updated from the calling domain only. *)
let cumulative = fresh_counters ()

let snapshot c = {
  batches = c.c_batches;
  tasks = c.c_tasks;
  genome_hits = c.c_genome_hits;
  genome_misses = c.c_genome_misses;
  key_hits = c.c_key_hits;
  compiles = c.c_compiles;
  verifies = c.c_verifies;
  evictions = c.c_evictions;
  workers =
    Hashtbl.fold
      (fun id r acc ->
         let t, b = !r in
         { w_id = id; w_tasks = t; w_busy_s = b } :: acc)
      c.c_workers []
    |> List.sort (fun a b -> Int.compare a.w_id b.w_id);
}

let record_worker c (id, tasks, busy) =
  let r =
    match Hashtbl.find_opt c.c_workers id with
    | Some r -> r
    | None ->
      let r = ref (0, 0.0) in
      Hashtbl.add c.c_workers id r;
      r
  in
  let t, b = !r in
  r := (t + tasks, b +. busy)

type ('bin, 'core) t = {
  jobs : int;
  cache : bool;
  canon : Genome.t -> string;
  compile : Genome.t -> ('bin, 'core) result;
  key_of : 'bin -> string;
  verify : 'bin -> 'core;
  genome_cache : 'core Lru.t;
  key_cache : 'core Lru.t;
  ctr : counters;
}

(* Bounded for a long-lived server, but comfortably above what one search
   touches, so a default pool behaves exactly like the old unbounded one. *)
let default_memo_budget = 65536

let create ?(jobs = 1) ?(cache = true) ?(memo_budget = default_memo_budget)
    ~canon ~compile ~key_of ~verify () =
  if jobs < 1 then invalid_arg "Evalpool.create: jobs must be >= 1";
  if memo_budget < 1 then
    invalid_arg "Evalpool.create: memo_budget must be >= 1";
  let ctr = fresh_counters () in
  let memo () =
    Lru.create ~budget:memo_budget ~weight:(fun _ -> 1)
      ~on_evict:(fun _ _ ->
          ctr.c_evictions <- ctr.c_evictions + 1;
          cumulative.c_evictions <- cumulative.c_evictions + 1;
          Trace.incr "evalpool.memo_evictions")
      ()
  in
  { jobs; cache; canon; compile; key_of; verify;
    genome_cache = memo (); key_cache = memo (); ctr }

let stats t = snapshot t.ctr
let cumulative_stats () = snapshot cumulative

let seed_caches t ~genomes ~keys =
  if t.cache then begin
    List.iter (fun (c, core) -> Lru.add t.genome_cache c core) genomes;
    List.iter (fun (k, core) -> Lru.add t.key_cache k core) keys
  end

(* The process-wide worker pool: batches are driven from one domain at a
   time, so only that domain reads or replaces it.  A stage that asks for
   more workers than the pool has gets a wider one; the old pool's
   domains are joined first. *)
let process_pool = ref None

let pool_of_width n =
  match !process_pool with
  | Some p when Domainpool.size p >= n -> p
  | old ->
    Option.iter Domainpool.shutdown old;
    let p = Domainpool.create ~workers:n in
    process_pool := Some p;
    p

(* Run [f] over [arr] on up to [t.jobs] workers (the calling domain acts
   as worker 0).  Work-stealing via a shared atomic index; each output slot
   is written by exactly one domain and published by the pool's completion
   handshake.  Pool workers at or above this stage's width sit it out. *)
let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let nworkers = max 1 (min t.jobs n) in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker wid =
      Trace.span ~cat:"evalpool"
        ~args:[ ("worker", string_of_int wid) ]
        "evalpool:worker"
      @@ fun () ->
      let t0 = Clock.now () in
      let count = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          incr count;
          loop ()
        end
      in
      loop ();
      (wid, !count, Clock.elapsed t0)
    in
    let slots = Array.make nworkers None in
    if nworkers = 1 then slots.(0) <- Some (Ok (worker 0))
    else
      Domainpool.run (pool_of_width nworkers) (fun wid ->
          if wid < nworkers then
            slots.(wid) <- Some (try Ok (worker wid) with e -> Error e));
    Array.iter
      (function
        | Some (Ok w) ->
          record_worker t.ctr w;
          record_worker cumulative w
        | Some (Error _) | None -> ())
      slots;
    Array.iter (function Some (Error e) -> raise e | _ -> ()) slots;
    Array.map (function Some v -> v | None -> assert false) out
  end

(* Where one item of a batch gets its core: from the memo, or from the
   [p]-th representative the batch computes. *)
type 'core source = Memo of 'core | Rep of int

(* Resolve [keys] against [memo] in index order, on the calling domain.
   A memo hit ([Lru.find], which touches recency) and a key that an
   earlier item already stands for both count as [hit]; any other item
   becomes the next representative and counts as [miss].  With the cache
   off nothing is looked up and every item represents itself.  Returns
   each item's source and the representatives' item indices. *)
let resolve t memo keys ~hit ~miss =
  let n = Array.length keys in
  let sources = Array.make n (Rep 0) in
  let owners = Hashtbl.create 16 in
  let reps = ref [] and nrep = ref 0 in
  for i = 0 to n - 1 do
    let key = keys.(i) in
    let known =
      if not t.cache then None
      else
        match Lru.find memo key with
        | Some v -> Some (Memo v)
        | None -> Option.map (fun p -> Rep p) (Hashtbl.find_opt owners key)
    in
    match known with
    | Some src ->
      sources.(i) <- src;
      hit ()
    | None ->
      if t.cache then Hashtbl.add owners key !nrep;
      sources.(i) <- Rep !nrep;
      reps := i :: !reps;
      incr nrep;
      miss ()
  done;
  (sources, Array.of_list (List.rev !reps))

let evaluate_batch t tasks =
  Trace.span ~cat:"evalpool"
    ~args:[ ("tasks", string_of_int (Array.length tasks)) ]
    "evalpool:batch"
  @@ fun () ->
  let n = Array.length tasks in
  t.ctr.c_batches <- t.ctr.c_batches + 1;
  t.ctr.c_tasks <- t.ctr.c_tasks + n;
  cumulative.c_batches <- cumulative.c_batches + 1;
  cumulative.c_tasks <- cumulative.c_tasks + n;
  Trace.incr "evalpool.batches";
  Trace.add "evalpool.tasks" n;
  let bump_hit () =
    t.ctr.c_genome_hits <- t.ctr.c_genome_hits + 1;
    cumulative.c_genome_hits <- cumulative.c_genome_hits + 1;
    Trace.incr "evalpool.genome_hits"
  and bump_miss () =
    t.ctr.c_genome_misses <- t.ctr.c_genome_misses + 1;
    cumulative.c_genome_misses <- cumulative.c_genome_misses + 1
  and bump_key_hit () =
    t.ctr.c_key_hits <- t.ctr.c_key_hits + 1;
    cumulative.c_key_hits <- cumulative.c_key_hits + 1;
    Trace.incr "evalpool.key_hits"
  in
  (* Genomes: resolve against the genome memo, then compile the
     representatives in parallel. *)
  let canons = Array.map (fun (_, g) -> t.canon g) tasks in
  let genome_src, reps =
    resolve t t.genome_cache canons ~hit:bump_hit ~miss:bump_miss
  in
  let nrep = Array.length reps in
  let compiled = parallel_map t (fun i -> t.compile (snd tasks.(i))) reps in
  t.ctr.c_compiles <- t.ctr.c_compiles + nrep;
  cumulative.c_compiles <- cumulative.c_compiles + nrep;
  Trace.add "evalpool.compiles" nrep;
  (* Binaries: representative [p] compiled to binary [bin_index.(p)], or
     failed and is its own core.  Resolve the binaries' keys against the
     binary memo, then verify that step's representatives in parallel. *)
  let bin_index = Array.make nrep (-1) and bins = ref [] and nbin = ref 0 in
  Array.iteri
    (fun p -> function
       | Ok bin ->
         bin_index.(p) <- !nbin;
         incr nbin;
         bins := bin :: !bins
       | Error _ -> ())
    compiled;
  let bins = Array.of_list (List.rev !bins) in
  let keys = Array.map t.key_of bins in
  let key_src, vreps =
    resolve t t.key_cache keys ~hit:bump_key_hit ~miss:ignore
  in
  let verified = parallel_map t (fun j -> t.verify bins.(j)) vreps in
  let nver = Array.length vreps in
  t.ctr.c_verifies <- t.ctr.c_verifies + nver;
  cumulative.c_verifies <- cumulative.c_verifies + nver;
  Trace.add "evalpool.verifies" nver;
  let bin_cores =
    Array.map (function Memo v -> v | Rep q -> verified.(q)) key_src
  in
  let rep_core p =
    match compiled.(p) with
    | Error core -> core
    | Ok _ -> bin_cores.(bin_index.(p))
  in
  (* Every memo read and write happens on the calling domain in an order
     the batch alone fixes, so evictions never depend on scheduling. *)
  if t.cache then begin
    Array.iteri (fun j core -> Lru.add t.key_cache keys.(j) core) bin_cores;
    Array.iteri (fun p i -> Lru.add t.genome_cache canons.(i) (rep_core p)) reps
  end;
  Array.map (function Memo v -> v | Rep p -> rep_core p) genome_src

let print_stats s =
  Printf.printf
    "evalpool: %d evaluations in %d batches | genome cache %d hits / %d \
     misses | binary-key reuse %d | %d compiles, %d verified replays | %d \
     memo evictions\n"
    s.tasks s.batches s.genome_hits s.genome_misses s.key_hits
    s.compiles s.verifies s.evictions;
  List.iter
    (fun w ->
       Printf.printf "  worker %d: %d stage tasks, %.3f s busy\n"
         w.w_id w.w_tasks w.w_busy_s)
    s.workers
