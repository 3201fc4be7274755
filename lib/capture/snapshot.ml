module Mem = Repro_os.Mem
module Storage = Repro_os.Storage
module Trace = Repro_util.Trace

type page_image = { pg_index : int; pg_data : Bytes.t }

(* A built template and the generation it was built under. *)
type template_slot = (int * Mem.t) option Atomic.t

let no_template () = Atomic.make None

type t = {
  snap_app : string;
  snap_mid : int;
  snap_args : Repro_vm.Value.t list;
  snap_maps : Mem.mapping list;
  snap_pages : page_image list;
  snap_common : page_image list;
  snap_code_files : (string * int) list;
  snap_heap_next : int;
  snap_alloc_since_gc : int;
  snap_template : template_slot;
}

let program_bytes t = List.length t.snap_pages * Mem.page_size
let common_bytes t = List.length t.snap_common * Mem.page_size

(* A capture's program blob is named by its content: the app name plus a
   digest of its page indices and words.  Two captures share a name only
   when they hold the same pages, whatever the input, seed or app source
   that produced them.  Boot-common pages are the same for every capture
   of an app, so they keep one blob per app.  The digest is taken over
   each page marshalled as [(index, int64 array)], so stored blob names
   do not depend on how a page is held in memory. *)
let program_label t =
  let words { pg_index; pg_data } =
    ( pg_index,
      Array.init Mem.words_per_page (fun w ->
          Bytes.get_int64_le pg_data (w * 8)) )
  in
  let pages =
    Marshal.to_string (List.map words t.snap_pages) [ Marshal.No_sharing ]
  in
  Printf.sprintf "%s/capture/%s" t.snap_app
    (String.sub (Digest.to_hex (Digest.string pages)) 0 12)

let common_label t = t.snap_app ^ "/boot-common"

let page_list images =
  List.map (fun { pg_index; pg_data } -> (pg_index, pg_data)) images

let store storage t =
  (* enqueue only; the idle-priority spooler (Storage.drain between GA
     evaluation batches) does the hashing.  Boot-common pages get their own
     per-app blob: identical runtime pages dedup to shared frames in the
     content-addressed store, which is exactly the Figure 11 sharing. *)
  Storage.write storage ~label:(program_label t) ~pages:(page_list t.snap_pages);
  Storage.write storage ~label:(common_label t) ~pages:(page_list t.snap_common)

(* The device store, when one is attached (repro --store, repro storage).  Set
   on the main domain before any workers spawn; workers only read it. *)
let store_ref : Storage.t option Atomic.t = Atomic.make None
let set_store s = Atomic.set store_ref s
let current_store () = Atomic.get store_ref

(* ------------------------- snapshot templates ------------------------ *)

(* page images for the template: from the attached store when this
   snapshot's blobs are in it (checksum-validated read; failures raise
   [Storage.Integrity], which the replay loader converts into a crashed
   replay for the quarantine policy), else the in-memory lists *)
let template_pages snap =
  let stored =
    Option.map (fun storage -> (storage, program_label snap)) (current_store ())
  in
  match stored with
  | Some (storage, label) when Storage.contains storage ~label ->
    Trace.incr "storage.template_reads";
    let fetch label =
      match Storage.read storage ~label with
      | Ok pages -> pages
      | Error e -> raise (Storage.Integrity e)
    in
    fetch (common_label snap) @ fetch label
  | _ -> page_list snap.snap_common @ page_list snap.snap_pages

let layout snap =
  let mem = Mem.create () in
  List.iter
    (fun m ->
       Mem.map mem ~base:m.Mem.map_base ~npages:m.Mem.map_npages
         ~kind:m.Mem.map_kind ~name:m.Mem.map_name)
    snap.snap_maps;
  mem

let build_template snap =
  Trace.span ~cat:"replay" ~args:[ ("app", snap.snap_app) ]
    "snapshot:build_template"
  @@ fun () ->
  Trace.incr "replay.template_builds";
  let pages = template_pages snap in
  let mem = layout snap in
  List.iter
    (fun (page, data) ->
       Mem.install_page ~image:Repro_vm.Image.boot_image mem ~page data)
    pages;
  mem

(* Each snapshot holds its own template, so a template lives exactly as
   long as its snapshot.  A template is wholly frozen, so every domain
   clones and reads the same one.  A slot is read without a lock; a
   template built before the last [invalidate_templates] is stale.  A miss
   builds under [build_lock], after looking again, so each snapshot's
   template is built once per invalidation. *)
let generation = Atomic.make 0
let build_lock = Mutex.create ()

let invalidate_templates () = Atomic.incr generation

let current_template snap =
  match Atomic.get snap.snap_template with
  | Some (gen, tpl) when gen = Atomic.get generation -> Some tpl
  | _ -> None

let template snap =
  match current_template snap with
  | Some tpl -> tpl
  | None ->
    Mutex.protect build_lock @@ fun () ->
    match current_template snap with
    | Some tpl -> tpl
    | None ->
      let gen = Atomic.get generation in
      let tpl = build_template snap in
      Atomic.set snap.snap_template (Some (gen, tpl));
      tpl
