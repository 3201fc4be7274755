module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem
module Ctx = Repro_vm.Exec_ctx
module Heap = Repro_vm.Heap
module Interp = Repro_vm.Interp
module Value = Repro_vm.Value
module Exec = Repro_lir.Exec
module Storage = Repro_os.Storage
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults
module Rng = Repro_util.Rng

type code_version =
  | Android_code of Repro_lir.Blockexec.loaded
  | Interpreter
  | Optimized of Repro_lir.Blockexec.loaded

type outcome =
  | Finished of Value.t option * int
  | Crashed of string
  | Hung

type run = {
  outcome : outcome;
  ctx : Ctx.t;
}

(* The loader program occupies a fixed low range; captured pages landing
   there must first be parked and moved after break-free (Figure 5).  With
   the Android address-space layout this is rare; we count them to keep
   the mechanism observable. *)
let loader_base = 0x0050_0000
let loader_pages = 64

let loader_collisions (snap : Snapshot.t) =
  let lo = loader_base / Mem.page_size in
  let count acc { Snapshot.pg_index; _ } =
    if pg_index >= lo && pg_index < lo + loader_pages then acc + 1 else acc
  in
  List.fold_left count
    (List.fold_left count 0 snap.Snapshot.snap_common)
    snap.Snapshot.snap_pages

let default_fuel = 200_000_000

(* --------------------- injected loader faults ---------------------- *)

(* Damage the rebuilt address space the way a broken loader would:
   [Replay_truncate] loses the snapshot's highest captured page (reads as
   zeroes, as if the spool file were cut short); [Replay_collision]
   clobbers one word of a captured page (a page-restore collision with the
   loader's own range that break-free relocation failed to fix up).

   Both faults target the region's *observable* state — pages inside the
   heap/statics mappings, the state the verification map covers.  Damage to
   the other captured regions (boot-common runtime pages, stacks) is only
   visible when the replay happens to read it; corrupting observable state
   instead makes the fault either caught or genuinely behaviour-preserving,
   which is the property the robustness net must establish. *)
let inject_loader_faults ~key mem (snap : Snapshot.t) =
  let observable =
    List.filter
      (fun { Snapshot.pg_index; _ } ->
        List.exists
          (fun m ->
            (m.Mem.map_kind = Mem.Rheap || m.Mem.map_kind = Mem.Rstatics)
            && pg_index >= m.Mem.map_base / Mem.page_size
            && pg_index < (m.Mem.map_base / Mem.page_size) + m.Mem.map_npages)
          snap.Snapshot.snap_maps)
      (snap.Snapshot.snap_pages @ snap.Snapshot.snap_common)
  in
  (* a page of zeroes reads back as zeroes: truncation of it is a no-op *)
  let nonzero { Snapshot.pg_data; _ } =
    Bytes.exists (fun c -> c <> '\000') pg_data
  in
  let targets = List.filter nonzero observable in
  if targets <> [] then begin
    if Faults.fire Faults.Replay_truncate ~key then begin
      let last =
        List.fold_left
          (fun acc { Snapshot.pg_index; _ } -> max acc pg_index)
          (let { Snapshot.pg_index; _ } = List.hd targets in pg_index)
          targets
      in
      let base = last * Mem.page_size in
      for w = 0 to Mem.words_per_page - 1 do
        Mem.write_int mem (base + (w * 8)) 0
      done;
      Faults.record Faults.Replay_truncate
    end;
    if Faults.fire Faults.Replay_collision ~key then begin
      let rng = Faults.rng Faults.Replay_collision ~key in
      let { Snapshot.pg_index; _ } = Rng.pick rng (Array.of_list targets) in
      let w = Rng.int rng Mem.words_per_page in
      let addr = (pg_index * Mem.page_size) + (w * 8) in
      Mem.write_word mem addr
        (Int64.logxor (Mem.read_word mem addr) 0xDEADBEEFL);
      Faults.record Faults.Replay_collision
    end
  end

(* Storage faults: the loader's read of the snapshot blob from the device
   store comes back damaged — one stored page truncated (partial flash
   write) or with a byte flipped (media corruption).  The damage goes
   through [Storage.read ?damage], i.e. through the very checksum
   machinery that guards real corruption: the injected fault is only
   observed if the store *detects* it, and the resulting error string
   (prefix "storage:") is what the quarantine policy keys on.  Only
   meaningful when a store is attached and holds this snapshot's blob. *)
let inject_store_faults ~key (snap : Snapshot.t) =
  match Snapshot.current_store () with
  | None -> None
  | Some storage ->
    (* [Faults.fire] is a pure function of the seed, point and key, so the
       label — a marshal and digest of every program page — is computed
       only once a store fault fires *)
    let label = lazy (Snapshot.program_label snap) in
    let attempt point damage =
      if not (Faults.fire point ~key) then None
      else
        let label = Lazy.force label in
        if not (Storage.contains storage ~label) then None
        else
          match Storage.read storage ~label ~damage with
          | Ok _ -> None (* blob empty: nothing to damage *)
          | Error e ->
            Faults.record point;
            Some ("storage: " ^ Storage.describe e)
    in
    let npages = max 1 (List.length snap.Snapshot.snap_pages) in
    let truncate =
      attempt Faults.Store_truncate (fun pos b ->
          let rng = Faults.rng Faults.Store_truncate ~key in
          let victim = Rng.int rng npages in
          if pos = victim then Bytes.sub b 0 (Rng.int rng (Bytes.length b))
          else b)
    in
    match truncate with
    | Some _ as r -> r
    | None ->
      attempt Faults.Store_corrupt (fun pos b ->
          let rng = Faults.rng Faults.Store_corrupt ~key in
          let victim = Rng.int rng npages in
          if pos = victim && Bytes.length b > 0 then begin
            let i = Rng.int rng (Bytes.length b) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
            b
          end
          else b)

(* [Replay_regs]: corrupt one captured argument — the "architectural
   state" restored by the loader. *)
let perturb_args ~key args =
  if args <> [] && Faults.fire Faults.Replay_regs ~key then begin
    let rng = Faults.rng Faults.Replay_regs ~key in
    let i = Rng.int rng (List.length args) in
    Faults.record Faults.Replay_regs;
    List.mapi (fun j v -> if j = i then Exec.perturb_value v else v) args
  end
  else args

let run ?(fuel = default_fuel) ?engine ?record_vcall ?faults_key
    (dx : B.dexfile) (snap : Snapshot.t) version =
  let engine =
    match engine with
    | Some e -> e
    | None -> Repro_lir.Blockexec.default_engine ()
  in
  Trace.span ~cat:"replay"
    ~args:[ ("app", snap.Snapshot.snap_app) ]
    (match version with
     | Android_code _ -> "replay:android"
     | Interpreter -> "replay:interpreter"
     | Optimized _ -> "replay:optimized")
  @@ fun () ->
  (match faults_key with
   | None -> fun body -> body ()
   | Some key -> fun body -> Faults.scoped ~key body)
  @@ fun () ->
  (* 1-3) rebuild the address space: a Copy-on-Write clone of the
     snapshot's template — page installs happen once per snapshot inside
     [Snapshot.template]; each replay only duplicates the page table and
     shares every frame until it writes.  When the
     template materializes from the device store and a stored page fails
     its checksum, the loader cannot rebuild the space: fall back to an
     empty (mappings-only) space and report a crashed replay, which the
     pipeline's quarantine policy turns into a discarded artifact instead
     of an aborted search. *)
  let storage_broken = ref None in
  let mem =
    match Mem.clone (Snapshot.template snap) with
    | mem -> mem
    | exception Storage.Integrity e ->
      storage_broken := Some ("storage: " ^ Storage.describe e);
      Trace.incr "replay.storage_failures";
      Snapshot.layout snap
  in
  (match faults_key with
   | Some key when !storage_broken = None ->
     (match inject_store_faults ~key snap with
      | Some _ as broken ->
        Trace.incr "replay.storage_failures";
        storage_broken := broken
      | None -> ())
   | _ -> ());
  (match faults_key with
   | Some key -> inject_loader_faults ~key mem snap
   | None -> ());
  (* restore allocator + GC accounting ("architectural state") *)
  let heap_map =
    List.find (fun m -> m.Mem.map_kind = Mem.Rheap) snap.Snapshot.snap_maps
  in
  let heap =
    Heap.restore mem ~base:heap_map.Mem.map_base ~npages:heap_map.Mem.map_npages
      ~next:snap.Snapshot.snap_heap_next
  in
  let statics_map =
    List.find (fun m -> m.Mem.map_kind = Mem.Rstatics) snap.Snapshot.snap_maps
  in
  let ctx =
    Ctx.create ~seed:0 ~fuel dx mem heap
      ~statics_base:statics_map.Mem.map_base
  in
  ctx.Ctx.alloc_since_gc <- snap.Snapshot.snap_alloc_since_gc;
  (match record_vcall with
   | Some h -> ctx.Ctx.record_vcall <- Some h
   | None -> ());
  (* 4) choose and execute the code version *)
  (match version with
   | Interpreter -> Interp.install ctx
   | Android_code loaded | Optimized loaded ->
     Repro_lir.Blockexec.install_engine engine ctx loaded);
  let region_args =
    match faults_key with
    | Some key -> perturb_args ~key snap.Snapshot.snap_args
    | None -> snap.Snapshot.snap_args
  in
  let outcome =
    match !storage_broken with
    | Some msg -> Crashed msg
    | None -> (
        match Ctx.invoke ctx snap.Snapshot.snap_mid region_args with
        | ret -> Finished (ret, ctx.Ctx.cycles)
        | exception Ctx.App_exception code ->
          Crashed (Printf.sprintf "uncaught exception %d" code)
        | exception Exec.Segfault msg -> Crashed ("segfault: " ^ msg)
        | exception Ctx.Timeout -> Hung)
  in
  { outcome; ctx }

let cycles r =
  match r.outcome with
  | Finished (_, c) -> Some c
  | Crashed _ | Hung -> None
