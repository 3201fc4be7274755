(** Paged virtual address space with protection, fault hooks and
    fork/Copy-on-Write — the kernel facilities the capture mechanism
    repurposes (paper §3.2).

    Addresses are byte addresses; accesses are word (8-byte) granular.
    Pages are 4 KiB, each held as one flat [Bytes.t] of little-endian
    words.  A page that has never been touched reads as zero.

    The page table is flat: one contiguous slot array per mapping, fronted
    by a one-entry mapping cache, so a load/store is an array index rather
    than a hash probe.  Never-written pages share one frozen zero frame
    and cost no allocation to read.

    [fork] produces a second address space sharing all physical pages; the
    first write to a shared page from either side copies it (Copy-on-Write),
    and the copy event is counted.  [clone] is the replay-oriented variant:
    an O(page-table) snapshot of a {e template} space whose privatized
    ("dirty") pages are tracked, so verification can scan only the pages a
    replay actually wrote (still physically shared pages are equal to the
    template by construction).  [protect] removes access to a page; the
    next access triggers the installed fault handler (which typically
    records the page and restores access), mirroring [mprotect] + SIGSEGV
    handling.

    {b Frame sharing.}  A frame that two address spaces share is
    {e frozen}: never written, never counted, and readable from any
    domain.  A write to a frozen frame copies the page into the writing
    space first, as the kernel does for a page [fork] left read-only.
    [fork] and [clone] freeze what they share, {!install_page} freezes the
    bytes it is handed, and the zero frame and the pages of an {!image}
    are frozen from birth.  Only the pages a space privatized by writing
    are unfrozen, so a space that writes stays on one domain.  A snapshot
    template is wholly frozen and only read ({!page_bytes}, {!clone}), so
    one template serves every domain of the process
    ([Repro_capture.Snapshot.template]). *)

type t

type region_kind =
  | Rheap        (** application heap: captured on demand *)
  | Rstatics     (** static fields: captured on demand *)
  | Rruntime     (** runtime immutable objects: boot-common, captured once per boot *)
  | Rcode        (** memory-mapped code/files: never captured, only paths logged *)
  | Rgc_aux      (** GC auxiliary structures: cannot be protected, always stored *)
  | Rstack       (** stack pages: cannot be protected, always stored *)

type mapping = {
  map_base : int;          (** byte address of first page *)
  map_npages : int;
  map_kind : region_kind;
  map_name : string;
}

type stats = {
  mutable n_faults : int;        (** protection faults taken *)
  mutable n_cow : int;           (** pages copied by Copy-on-Write *)
  mutable n_reads : int;
  mutable n_writes : int;
}

val page_size : int
(** 4096 bytes. *)

val words_per_page : int

val create : unit -> t

val map : t -> base:int -> npages:int -> kind:region_kind -> name:string -> unit
(** Add a mapping.  Overlapping mappings are a programming error.
    @raise Invalid_argument on overlap or unaligned base. *)

val mappings : t -> mapping list
(** The /proc/self/maps view: every mapping in ascending address order. *)

val stats : t -> stats
val reset_stats : t -> unit

(** {2 Word access}

    The word holding a byte address, as an [int], a [float] (IEEE bits) or
    a [bool] (non-zero).  The replay engines access memory only through
    these, by element kind, so no [int64] crosses into this module on the
    replay path.  Every access runs the fault handler first if the page is
    protected.  @raise Invalid_argument if the address is unmapped. *)

val read_int : t -> int -> int
(** The word's low 63 bits ([Int64.to_int]). *)

val read_float : t -> int -> float
val read_bool : t -> int -> bool
(** Whether any of the word's 64 bits is set. *)

val write_int : t -> int -> int -> unit
(** Stores the sign-extended [Int64.of_int]. *)

val write_float : t -> int -> float -> unit

val read_word : t -> int -> int64
(** The raw 64-bit word, for loaders and tests. *)

val write_word : t -> int -> int64 -> unit

val kind_of_page : t -> int -> region_kind option
(** Kind of the mapping containing the page, if mapped. *)

val protect : t -> page:int -> unit
(** Remove access: the next read or write faults.  No effect on unmapped or
    never-touched pages (they are protected anyway when materialized). *)

val unprotect : t -> page:int -> unit

val protected : t -> page:int -> bool

val set_fault_handler : t -> (int -> unit) option -> unit
(** Handler receives the faulting page index *before* the access proceeds.
    The handler runs once per fault; access permission is restored
    automatically after the handler returns (matching the capture handler's
    behaviour in §3.2 step 3). *)

val fork : t -> t
(** Copy-on-Write clone of the address space: every frame of the source
    is frozen and shared, and a never-written page the source has read
    becomes a zero-filled frame both share, so the source's next write
    there counts as Copy-on-Write.  The clone has no protection, no fault
    handler and fresh stats. *)

val clone : t -> t
(** Copy-on-Write clone optimized for replay: freezes the source's
    privatized pages and shares every frame of the source (the
    {e template}), copying only the page table, and starts an empty dirty
    set.  Cost is O(mapped pages) pointer copies — no 4 KiB page copies —
    and a wholly frozen template, such as a snapshot's, is only read, so
    clones of it may be made on any domain.  Bumps the [mem.clone_pages]
    trace counter by the number of shared pages. *)

val cloned_from : t -> t option
(** The space this one was [clone]d from, if any ([fork] children return
    [None]). *)

val dirty_pages : t -> kind:region_kind -> int list
(** Pages of [kind] privatized in {e this} space since it was created or
    cloned — i.e. every page whose contents may differ from the clone
    source.  Sorted ascending, duplicate-free.  Pages still physically
    sharing the source's frame are never reported. *)

val shares_frame : t -> t -> page:int -> bool
(** Whether the two spaces are backed by the same physical frame at
    [page] (including the shared zero frame and image frames). *)

(** {2 Images and page placement} *)

type image
(** A run of frozen frames at fixed pages: the boot-common runtime
    image.  Build one once per process, before any worker domain starts;
    every space that maps it, and every fork and clone of those, shares
    its frames.  Writing to one of its pages copies that page into the
    writing space only (counted as Copy-on-Write). *)

val image : first_page:int -> Bytes.t array -> image
(** [image ~first_page pages] freezes [pages] (copied; each must be
    page-sized) into frozen frames for pages [first_page],
    [first_page + 1], ....  @raise Invalid_argument on a bad page size. *)

val map_image : t -> image -> unit
(** Point every page of the image at its frozen frame, as
    {!install_page} would with equal data: protection is cleared and no
    page is copied.  @raise Invalid_argument if a page is unmapped. *)

val install_page : ?image:image -> t -> page:int -> Bytes.t -> unit
(** Bulk-restore a page image (the replay loader's page placement);
    protection is cleared.  When [image] holds [page] with equal bytes,
    the space shares that frame; otherwise the space aliases the bytes
    it is handed as a frozen frame, with no copy, so the caller must
    never write them again.  A write through the space copies them
    first.  @raise Invalid_argument if the page is unmapped or the image
    is not page-sized. *)

val page_bytes : t -> page:int -> Bytes.t option
(** The live backing bytes of a materialized page, not copied; [None] if
    the page was never touched in this address space.  Callers must
    treat them as read-only; writing through them would corrupt frames
    shared with other spaces.  A page query never updates the space's
    mapping cache, so any domain may read a frozen template through it.
    For capture and verification scans. *)

val touched_pages : t -> kind:region_kind -> int list
(** Materialized (ever-accessed or installed) pages of all mappings of a
    kind, ascending. *)

val word_count : t -> int
(** Total words in materialized pages, a measure of resident size. *)
