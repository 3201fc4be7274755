(** Paged virtual address space with protection, fault hooks and
    fork/Copy-on-Write — the kernel facilities the capture mechanism
    repurposes (paper §3.2).

    Addresses are byte addresses; accesses are word (8-byte) granular.
    Pages are 4 KiB.  A page that has never been touched reads as zero.

    The page table is flat: one contiguous slot array per mapping, fronted
    by a one-entry mapping cache, so a load/store is an array index rather
    than a hash probe.  Never-written pages share one immutable zero frame
    and cost no allocation to read.

    [fork] produces a second address space sharing all physical pages; the
    first write to a shared page from either side copies it (Copy-on-Write),
    and the copy event is counted.  [clone] is the replay-oriented variant:
    an O(page-table) snapshot of an immutable {e template} space whose
    privatized ("dirty") pages are tracked, so verification can scan only
    the pages a replay actually wrote (still physically shared pages are
    equal to the template by construction).  [protect] removes access to a
    page; the next access triggers the installed fault handler (which
    typically records the page and restores access), mirroring [mprotect] +
    SIGSEGV handling.

    {b Domain safety.}  Frame refcounts are plain ints.  The sharing
    discipline that keeps this safe: a space and every space sharing frames
    with it (its forks, its clones, its template) must be used from a single
    domain.  [Repro_capture.Snapshot.template] maintains one template per
    domain for exactly this reason.  The global zero frame is immutable and
    its refcount is never touched, so sharing it across domains is safe. *)

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

val read_word : t -> int -> int64
(** @raise Fault-handler effects first if the page is protected.
    @raise Invalid_argument if the address is unmapped. *)

val write_word : t -> int -> int64 -> unit

val read_int : t -> int -> int
val write_int : t -> int -> int -> unit
val read_float : t -> int -> float
val write_float : t -> int -> float -> unit

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
(** Copy-on-Write clone of the address space.  The clone has no protection,
    no fault handler and fresh stats. *)

val clone : t -> t
(** Copy-on-Write clone optimized for replay: shares every frame of the
    source (the {e template}), copies only the page table, and starts an
    empty dirty set.  Cost is O(mapped pages) pointer copies plus one
    refcount bump per materialized page — no 4 KiB page copies.  Bumps the
    [mem.clone_pages] trace counter by the number of shared pages. *)

val cloned_from : t -> t option
(** The space this one was [clone]d from, if any ([fork] children return
    [None]). *)

val dirty_pages : t -> kind:region_kind -> int list
(** Pages of [kind] privatized in {e this} space since it was created or
    cloned — i.e. every page whose contents may differ from the clone
    source.  Sorted ascending, duplicate-free.  Pages still physically
    sharing the source's frame are never reported. *)

val drop : t -> unit
(** Release the space's frame references (refcount decrements) and empty
    its page table.  The space must not be used afterwards; useful to keep
    refcounts exact in long clone chains and in tests. *)

val refcount : t -> page:int -> int option
(** Sharing count of the physical frame backing [page]: [Some rc] for a
    real frame, [None] for unmapped, never-touched, or zero-frame pages. *)

val shares_frame : t -> t -> page:int -> bool
(** Whether the two spaces are backed by the same physical frame at
    [page] (including the shared zero frame). *)

val install_page : t -> page:int -> int64 array -> unit
(** Bulk-restore a page image (the replay loader's page placement).  The
    data is copied; protection is cleared.  @raise Invalid_argument if the
    page is unmapped or the image is not page-sized. *)

val page_data : t -> page:int -> int64 array option
(** Current contents of a materialized page (a copy); [None] if the page was
    never touched in this address space. *)

val page_words : t -> page:int -> int64 array option
(** Like {!page_data} but returns the live backing array without copying.
    Callers must treat it as read-only; writing through it would corrupt
    frames shared with other spaces.  For verification scans. *)

val touched_pages : t -> kind:region_kind -> int list
(** Materialized (ever-accessed or installed) pages of all mappings of a
    kind, ascending. *)

val word_count : t -> int
(** Total words in materialized pages, a measure of resident size. *)
