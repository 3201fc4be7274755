(** A captured hot-region execution: everything a replay needs to
    re-execute the region exactly as it ran online (§3.2/§3.3).

    Program-specific pages hold the original (pre-region) contents of every
    page the region touched, recovered from the forked child's
    Copy-on-Write frames.  Boot-common pages (immutable runtime objects)
    are stored once per device boot and shared across captures — in
    memory too: their page images are the process-wide
    {!Repro_vm.Image.boot_image} frames themselves.  Mapped code files are
    only logged as paths. *)

type page_image = { pg_index : int; pg_data : Bytes.t }
(** One captured page: its page-table index and original contents, one
    flat 4 KB page of little-endian words.  Never written: boot-common
    images share their bytes with the boot image. *)

type template_slot
(** Where a snapshot keeps its {!template} once built. *)

val no_template : unit -> template_slot
(** An empty slot, for a snapshot whose template is yet to be built. *)

type t = {
  snap_app : string;
  snap_mid : int;                        (** hot-region root method *)
  snap_args : Repro_vm.Value.t list;     (** architectural state *)
  snap_maps : Repro_os.Mem.mapping list; (** address-space layout to rebuild *)
  snap_pages : page_image list;          (** program-specific pages *)
  snap_common : page_image list;         (** boot-common runtime pages *)
  snap_code_files : (string * int) list; (** mmapped files: path, pages *)
  snap_heap_next : int;                  (** allocator bump pointer *)
  snap_alloc_since_gc : int;             (** GC accounting at capture *)
  snap_template : template_slot;
      (** this snapshot's template; a [{ snap with ... }] copy shares it *)
}

val program_bytes : t -> int
(** Storage footprint of the program-specific pages (Figure 11's
    per-capture cost). *)

val common_bytes : t -> int
(** Storage footprint of the boot-common pages (paid once per boot,
    shared by every capture). *)

val program_label : t -> string
(** Store label of the program-specific page blob: the app name, then
    ["/capture/"], then the first 12 hex digits of a digest of the page
    indices and words (e.g. ["FFT/capture/03551d9acd2b"]).  Captures of
    one app from different inputs or seeds get different blobs; only
    captures that hold the same pages share one.  Computed on each call
    (one marshal and MD5 over the program pages, each as
    [(index, int64 array)]). *)

val common_label : t -> string
(** Store label of this app's boot-common page blob (["app/boot-common"]).
    Every capture of an app holds the same boot-common pages, so one blob
    per app serves all of them.  Labels are per-app, but the
    content-addressed store dedups identical runtime pages across apps
    into shared frames — Figure 11's sharing. *)

val store : Repro_os.Storage.t -> t -> unit
(** Spool both page sets to device storage (enqueue only; the
    idle-priority drain between GA evaluation batches does the hashing).
    Replaces any previous blobs under the same labels.
    {!Repro_capture.Capture.capture_region} calls it for every snapshot
    it builds while a store is attached. *)

val set_store : Repro_os.Storage.t option -> unit
(** Attach (or detach, with [None]) the process-wide device store.  While
    one is attached and holds a snapshot's blobs, {!template} materializes
    from the store — checksum-validating every page — instead of from the
    in-memory page lists.  A template built before a change stays
    memoized until {!invalidate_templates}. *)

val current_store : unit -> Repro_os.Storage.t option

val invalidate_templates : unit -> unit
(** Make every built template stale, so the next {!template} call on any
    domain, pool workers included, rebuilds and reads the (possibly
    mutated) store — used by the corruption tests and fault campaigns. *)

val layout : t -> Repro_os.Mem.t
(** A fresh address space with the snapshot's mappings and no page: the
    template's skeleton, and the replay loader's space when the store
    cannot rebuild the template. *)

val template : t -> Repro_os.Mem.t
(** The snapshot's address-space template: mappings recreated and every
    captured page installed (program pages over boot-common ones), built
    once per snapshot for the whole process and kept in the snapshot's
    own slot until {!invalidate_templates}, so a template lives exactly as
    long as its snapshot.  A page equal to the boot image's — every
    boot-common page, whether from memory or from the store — shares the
    image's frame; every other page aliases the captured (or stored)
    bytes, with no copy.  The template is wholly frozen
    ({!Repro_os.Mem}), so every domain clones and reads the same one; a
    domain that misses builds it under one lock while the others wait.
    Replays [Repro_os.Mem.clone] it instead of re-installing every page,
    making per-replay setup O(page table) and verification O(dirty
    pages); verification reads the captured original words from the
    template a replay's space was cloned from.  Never write through it.
    @raise Repro_os.Storage.Integrity when a stored page fails its
    checksum. *)
