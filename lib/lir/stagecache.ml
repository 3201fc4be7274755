(* Process-global, domain-safe LRU cache of per-(method, pass-prefix) IR
   states.  See stagecache.mli for the contract; compile.ml is the only
   writer/reader on the hot path. *)

module Hir = Repro_hgraph.Hir
module Trace = Repro_util.Trace
module Lru = Repro_util.Lru

type entry = {
  sc_func : Hir.func;
  sc_charges : int array;
}

type stats = {
  prefix_hits : int;
  prefix_misses : int;
  genes_reused : int;
  genes_run : int;
  longest_prefix : int;
  inserts : int;
  evictions : int;
  entries : int;
  bytes_held : int;
  frontend_funcs : int;
}

(* Rough resident-size estimate for one cached IR state: the block table,
   per-instruction boxes and the charge array.  Only relative accuracy
   matters — the budget bounds growth, it is not an allocator.  The last
   recorded charge is exactly [Hir.size] of the cached function (the
   compiler charges the post-pass size), so no O(size) walk is needed. *)
let slot_bytes entry =
  let n = Array.length entry.sc_charges in
  let ir_size = if n = 0 then Hir.size entry.sc_func else entry.sc_charges.(n - 1) in
  256 + (112 * ir_size) + (8 * n)

(* Everything below the mutex: the LRU table, its byte budget and the
   counters.  Every operation is O(prefix length) at worst, tiny next to
   running a pass. *)
let lock = Mutex.create ()
let table =
  Lru.create ~budget:(256 * 1024 * 1024) ~weight:slot_bytes
    ~on_evict:(fun _ _ -> Trace.incr "stagecache.evictions")
    ()
let enabled_flag = ref true

let c_prefix_hits = ref 0
let c_prefix_misses = ref 0
let c_genes_reused = ref 0
let c_genes_run = ref 0
let c_longest = ref 0
let c_inserts = ref 0
let c_frontend_funcs = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = locked (fun () -> !enabled_flag)
let set_enabled b = locked (fun () -> enabled_flag := b)
let capacity_bytes () = locked (fun () -> Lru.budget table)
let set_capacity_bytes n = locked (fun () -> Lru.set_budget table n)

let key ~frontend ~mid fp = Printf.sprintf "%s|%d|%s" frontend mid fp

let fingerprints ~frontend spec =
  let acc = ref frontend in
  Array.of_list
    (List.map
       (fun (name, args) ->
          acc := Digest.to_hex
              (Digest.string (!acc ^ "/" ^ Passes.canon_token name args));
          !acc)
       spec)

let lookup ~frontend ~mid ~fps =
  locked (fun () ->
      if not !enabled_flag then None
      else begin
        let rec probe k =
          if k = 0 then None
          else
            match Lru.find table (key ~frontend ~mid fps.(k - 1)) with
            | Some e -> Some (k, e)
            | None -> probe (k - 1)
        in
        match probe (Array.length fps) with
        | Some (k, e) ->
          incr c_prefix_hits;
          c_genes_reused := !c_genes_reused + k;
          if k > !c_longest then c_longest := k;
          Trace.incr "stagecache.prefix_hits";
          Trace.add "stagecache.genes_reused" k;
          Some (k, e)
        | None ->
          incr c_prefix_misses;
          Trace.incr "stagecache.prefix_misses";
          None
      end)

let insert ~frontend ~mid ~fp entry =
  locked (fun () ->
      let k = key ~frontend ~mid fp in
      if !enabled_flag && not (Lru.mem table k) then begin
        Lru.add table k entry;
        incr c_inserts;
        Trace.incr "stagecache.inserts";
        Trace.gauge "stagecache.bytes_held" (float_of_int (Lru.weight table))
      end)

let note_gene_run () =
  locked (fun () -> incr c_genes_run);
  Trace.incr "stagecache.genes_run"

let note_frontend_func () =
  locked (fun () -> incr c_frontend_funcs);
  Trace.incr "stagecache.frontend_funcs"

let stats () =
  locked (fun () ->
      { prefix_hits = !c_prefix_hits;
        prefix_misses = !c_prefix_misses;
        genes_reused = !c_genes_reused;
        genes_run = !c_genes_run;
        longest_prefix = !c_longest;
        inserts = !c_inserts;
        evictions = Lru.evictions table;
        entries = Lru.length table;
        bytes_held = Lru.weight table;
        frontend_funcs = !c_frontend_funcs })

let reset () =
  locked (fun () ->
      Lru.reset table;
      c_prefix_hits := 0;
      c_prefix_misses := 0;
      c_genes_reused := 0;
      c_genes_run := 0;
      c_longest := 0;
      c_inserts := 0;
      c_frontend_funcs := 0)

let print_stats s =
  let total = s.prefix_hits + s.prefix_misses in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  Printf.printf
    "stage cache: %d/%d prefix hits (%.0f%%), %d/%d genes reused (%.0f%%), \
     longest reused prefix %d\n"
    s.prefix_hits total
    (pct s.prefix_hits total)
    s.genes_reused
    (s.genes_reused + s.genes_run)
    (pct s.genes_reused (s.genes_reused + s.genes_run))
    s.longest_prefix;
  Printf.printf
    "  %d entries holding %.2f MB (%d inserts, %d evictions); %d front-end \
     templates built\n"
    s.entries
    (float_of_int s.bytes_held /. 1048576.)
    s.inserts s.evictions s.frontend_funcs
