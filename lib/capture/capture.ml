module Mem = Repro_os.Mem
module Ctx = Repro_vm.Exec_ctx
module Heap = Repro_vm.Heap
module Cost = Repro_vm.Cost
module Trace = Repro_util.Trace

type overhead = {
  fork_ms : float;
  preparation_ms : float;
  fault_cow_ms : float;
  n_faults : int;
  n_cow : int;
  n_map_entries : int;
  n_protected : int;
}

let total_ms o = o.fork_ms +. o.preparation_ms +. o.fault_cow_ms

type result = {
  snapshot : Snapshot.t;
  overhead : overhead;
  region_ret : Repro_vm.Value.t option;
  region_exn : exn option;
}

(* Millisecond cost coefficients for the kernel interactions (loosely
   calibrated to the Pixel 4 numbers in Figure 10). *)
let fork_base_ms = 0.8
let fork_per_page_ms = 0.0012     (* page-table duplication *)
let prep_base_ms = 2.0
let prep_per_map_entry_ms = 0.045  (* /proc/self/maps parsing *)
let prep_per_protect_ms = 0.0012  (* one mprotect-ish call per page run *)
let fault_ms = 0.012              (* user-space SIGSEGV round trip *)
let cow_ms = 0.012                (* kernel page copy on first write *)
let eager_copy_ms = 0.038         (* CERE-style user-space copy at fault *)

let charge_ms (ctx : Ctx.t) ms =
  Ctx.charge ctx (int_of_float (ms *. float_of_int ctx.Ctx.cost.Cost.cycles_per_ms))

let materialized_pages mem = Mem.word_count mem / Mem.words_per_page

let capture_region ~app ?(harvest_on_exn = false) ?(eager = false)
    (ctx : Ctx.t) ~mid ~args ~run =
  Trace.span ~cat:"capture" ~args:[ ("app", app) ] "capture" @@ fun () ->
  let mem = ctx.Ctx.mem in
  let st = Mem.stats mem in
  (* 1-2) fork the child: Copy-on-Write keeps the pristine image *)
  let child = Mem.fork mem in
  let fork_ms =
    fork_base_ms +. (fork_per_page_ms *. float_of_int (materialized_pages mem))
  in
  charge_ms ctx fork_ms;
  (* 3) parse mappings, read-protect the app's own data pages *)
  let maps = Mem.mappings mem in
  let n_map_entries = List.length maps in
  let protected_pages =
    List.concat_map
      (fun kind -> Mem.touched_pages mem ~kind)
      [ Mem.Rheap; Mem.Rstatics ]
  in
  List.iter (fun page -> Mem.protect mem ~page) protected_pages;
  let n_protected = List.length protected_pages in
  let preparation_ms =
    prep_base_ms
    +. (prep_per_map_entry_ms *. float_of_int n_map_entries)
    +. (prep_per_protect_ms *. float_of_int n_protected)
  in
  charge_ms ctx preparation_ms;
  let recorded = ref [] in
  let per_fault_ms = if eager then fault_ms +. eager_copy_ms else fault_ms in
  Mem.set_fault_handler mem
    (Some
       (fun page ->
          recorded := page :: !recorded;
          charge_ms ctx per_fault_ms));
  let heap_next0 = Heap.next_addr ctx.Ctx.heap in
  let alloc0 = ctx.Ctx.alloc_since_gc in
  let faults0 = st.Mem.n_faults and cow0 = st.Mem.n_cow in
  (* 4) run the hot region as normal *)
  let teardown () =
    Mem.set_fault_handler mem None;
    List.iter (fun page -> Mem.unprotect mem ~page) protected_pages
  in
  (* The forked child holds the pristine pre-region pages, so the snapshot
     is valid even when the region raises: with [harvest_on_exn] the
     exception is recorded and harvesting proceeds — that is how trap-
     inducing corpus inputs are captured.  Otherwise exceptions propagate
     after teardown, as before. *)
  let region_ret, region_exn =
    match run () with
    | v ->
      teardown ();
      (v, None)
    | exception e ->
      teardown ();
      if harvest_on_exn then (None, Some e) else raise e
  in
  (* 5-6) wake the child; spool the original contents of recorded pages *)
  let n_faults = st.Mem.n_faults - faults0 in
  let n_cow = st.Mem.n_cow - cow0 in
  let cow_total_ms = if eager then 0.0 else cow_ms *. float_of_int n_cow in
  charge_ms ctx cow_total_ms;
  let fault_cow_ms =
    (per_fault_ms *. float_of_int n_faults) +. cow_total_ms
  in
  (* the fork froze every frame the child holds, so its pages are aliased,
     not copied: boot-common pages are the boot image's frames *)
  let image_of page =
    match Mem.page_bytes child ~page with
    | Some data -> Some { Snapshot.pg_index = page; pg_data = data }
    | None -> None
  in
  let always_stored =
    Mem.touched_pages child ~kind:Mem.Rstack
    @ Mem.touched_pages child ~kind:Mem.Rgc_aux
  in
  let program_pages =
    List.sort_uniq Int.compare (!recorded @ always_stored)
    |> List.filter_map image_of
  in
  let common_pages =
    Mem.touched_pages child ~kind:Mem.Rruntime |> List.filter_map image_of
  in
  let code_files =
    List.filter_map
      (fun m ->
         if m.Mem.map_kind = Mem.Rcode then Some (m.Mem.map_name, m.Mem.map_npages)
         else None)
      maps
  in
  let snapshot = {
    Snapshot.snap_app = app;
    snap_mid = mid;
    snap_args = args;
    snap_maps = maps;
    snap_pages = program_pages;
    snap_common = common_pages;
    snap_code_files = code_files;
    snap_heap_next = heap_next0;
    snap_alloc_since_gc = alloc0;
    snap_template = Snapshot.no_template ();
  } in
  (* the child spools its pages: enqueued here, hashed by the store's
     idle-priority drains *)
  Option.iter (fun storage -> Snapshot.store storage snapshot)
    (Snapshot.current_store ());
  Trace.add "capture.pages_spooled"
    (List.length program_pages + List.length common_pages);
  Trace.add "capture.faults" n_faults;
  Trace.add "capture.cow_copies" n_cow;
  { snapshot;
    overhead =
      { fork_ms; preparation_ms; fault_cow_ms; n_faults; n_cow; n_map_entries;
        n_protected };
    region_ret; region_exn }
