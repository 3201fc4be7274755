(** Content-addressed snapshot page store with cross-snapshot dedup,
    per-page checksums and an idle-priority spooler (paper §3.2/Figure 11).

    The capture mechanism spools the original contents of every recorded
    page to device flash at idle priority; the footprint stays practical
    because pages are {e shared}: boot-common runtime pages are identical
    across applications and must be stored once per boot.  This module
    models that store faithfully:

    - {b Content addressing.}  A stored page ("frame") is keyed by the
      digest of its bytes — the flat 4 KB frame {!Repro_os.Mem} holds —
      and refcounted; writing the same page
      content again — from the same blob or from another application's
      capture — stores nothing new.  The digest doubles as the frame's
      checksum.
    - {b Blobs.}  A labeled blob is an ordered manifest of
      [(page index, frame digest)] entries — one blob per capture region
      (program-specific pages) or per app boot image (boot-common pages).
      Replacing or deleting a blob decrements the refcounts of the frames
      it referenced; frames are reclaimed at zero.
    - {b Spooling.}  {!write} only enqueues; {!drain} (bounded) and
      {!flush} perform the actual hashing and storage, modelling the
      idle-priority writer.  {!read} of a blob with pages still queued
      spools those pages through first, so readers never observe a torn
      blob.
    - {b Integrity.}  Every {!read} re-validates each frame against its
      content address: a frame whose bytes are not exactly page-sized is
      reported as truncated, one whose digest no longer matches its key as
      corrupt.  Errors are returned as data (or raised as {!Integrity} by
      the template-materialization path) so the pipeline can quarantine
      the damaged artifact instead of crashing.
    - {b Persistence.}  {!save}/{!load} serialize the store; the load path
      degrades gracefully on partial or damaged files, keeping every
      record that parses and validates, and reporting the rest as
      warnings.

    {b Domain safety.}  Every operation takes the store's internal mutex:
    worker domains materializing replay templates may read concurrently
    with the main domain's idle drains.

    Trace counters (under [storage.*]): [pages_enqueued], [pages_spooled],
    [pages_deduped], [bytes_written], [drains], [reads], [read_flushes],
    [checksum_failures], [load_warnings]. *)

type t

val page_bytes : int
(** Size of one page: {!Repro_os.Mem.page_size} bytes. *)

type error =
  | Missing_blob of { label : string }
  | Missing_page of { label : string; index : int; hash : string }
      (** The manifest references a frame that is no longer present. *)
  | Truncated_page of
      { label : string; index : int; hash : string; expected : int; got : int }
      (** The frame's bytes are shorter (or longer) than one page. *)
  | Corrupt_page of { label : string; index : int; hash : string }
      (** The frame's digest no longer matches its content address. *)

exception Integrity of error
(** Raised by the snapshot-template materialization path
    ({!Repro_capture.Snapshot.template}) when a stored page fails
    validation; the replay loader turns it into a crashed replay that the
    verification net quarantines. *)

val describe : error -> string
(** One-line human-readable rendering (always starts with the label). *)

val create : unit -> t

(** {1 Write path (spooler)} *)

val write : t -> label:string -> pages:(int * Bytes.t) list -> unit
(** [write t ~label ~pages] replaces the blob under [label]: frames of the
    previous manifest are released and [pages] — [(page index, page
    bytes)] — are enqueued for spooling.  The store keeps the bytes it is
    handed (a new frame is not copied), so the caller must never write
    them afterwards.  No hashing happens until {!drain}/{!flush} (or a
    {!read} of this label). *)

val delete : t -> label:string -> unit
(** Drop the blob and release its frames (shared frames survive while any
    other blob references them).  Pages of [label] still queued are
    discarded. *)

val drain : ?max_pages:int -> t -> int
(** Spool up to [max_pages] queued pages (default: all), oldest first:
    hash, dedup against existing frames, append to the owning
    blob's manifest.  Returns the number of pages actually stored.  The
    pipeline calls this between GA evaluation batches — the idle-priority
    model. *)

val flush : t -> unit
(** [drain] everything. *)

val pending : t -> int
(** Pages enqueued but not yet spooled. *)

(** {1 Read path} *)

val read :
  ?damage:(int -> Bytes.t -> Bytes.t) ->
  t -> label:string -> ((int * Bytes.t) list, error) result
(** Read a blob back, validating every frame against its content address;
    the first failure is returned.  The pages are the stored frames'
    own bytes, not copies: callers must not write them.  Pages of this
    label still queued are spooled through first.  [damage], used by the
    fault-injection net and the corruption tests, is applied to a
    {e copy} of each frame's bytes (argument: position within the blob)
    before validation — so an injected single-byte flip or truncation
    must be caught by the same checksum machinery that guards real
    corruption. *)

val contains : t -> label:string -> bool

val manifest : t -> label:string -> (int * string) list option
(** The blob's [(page index, frame digest)] entries in page order, after
    spooling its queued pages.  Digests are raw 16-byte strings (hex them
    with [Digest.to_hex]). *)

val page_hash : Bytes.t -> string
(** Content address a page would be stored under: the digest of its
    bytes. *)

val frame_refs : t -> hash:string -> int option
(** Reference count of a frame: the number of manifest entries (across all
    blobs) pointing at it.  [None] once reclaimed. *)

(** {1 Accounting (Figure 11)} *)

val labels : t -> string list
(** All blob labels, sorted. *)

val physical_bytes : t -> int
(** Bytes actually held after dedup: one copy per distinct frame. *)

type accounting = {
  ac_blobs : int;
  ac_pages : int;              (** manifest entries across all blobs *)
  ac_logical_bytes : int;      (** (stored + queued pages) × {!page_bytes}
                                   across all blobs — what a store
                                   without sharing would pay *)
  ac_frames : int;             (** distinct frames *)
  ac_physical_bytes : int;     (** {!physical_bytes} *)
  ac_shared_bytes : int;       (** physical bytes of frames referenced by
                                   two or more distinct blobs — the
                                   boot-common sharing of Figure 11 *)
  ac_dedup_saved_bytes : int;  (** logical - physical *)
  ac_pending_pages : int;
}

val accounting : t -> accounting

type blob_accounting = {
  ba_label : string;
  ba_pages : int;
  ba_bytes : int;             (** logical: (stored + queued pages) ×
                                  {!page_bytes} *)
  ba_shared_bytes : int;      (** its frames also referenced by other blobs *)
  ba_exclusive_bytes : int;   (** frames only this blob references *)
}

val blob_accounting : t -> blob_accounting list
(** One row per blob, sorted by label. *)

(** {1 String framing} *)

val pages_of_string : string -> (int * Bytes.t) list
(** Frame an arbitrary string into whole store pages (8-byte LE length
    prefix, zero padding): the payload a text image (genome bank, search
    checkpoint) hands to {!write} so it inherits per-page checksums and
    the deterministic save layout. *)

val string_of_pages : (int * Bytes.t) list -> (string, string) result
(** Invert {!pages_of_string} on pages returned by {!read}; [Error]
    describes a malformed frame geometry or length prefix. *)

(** {1 Damage hooks (tests, fault campaigns)} *)

val corrupt : t -> hash:string -> byte:int -> unit
(** Persistently flip one byte of a stored frame (position taken modulo
    the frame's length).  The frame gets new bytes; pages read before
    keep the old ones.  Every subsequent read of any blob referencing
    the frame fails its checksum. *)

val truncate : t -> hash:string -> keep:int -> unit
(** Persistently cut a stored frame to its first [keep] bytes. *)

(** {1 On-disk format} *)

val save : t -> string -> unit
(** Serialize the store (after flushing the spool queue) to [file].  The
    byte layout is deterministic: frames sorted by digest, blobs by
    label. *)

val load : string -> t * string list
(** Rebuild a store from a file written by {!save}.  Partial writes and
    damaged records degrade gracefully: parsing stops at the first
    truncated record, frames whose bytes fail their checksum are dropped,
    manifest entries pointing at missing frames are kept (their blobs
    read back as {!Missing_page} and get quarantined downstream), and
    every such event is reported in the returned warning list. *)

(** {1 Text files: the codec of search checkpoints and genome banks} *)

val save_text : label:string -> string -> string -> unit
(** [save_text ~label file text] writes [text] as the only blob, [label],
    of a store file, atomically (temp file + rename: a crash mid-save
    leaves the previous file intact).  Byte-deterministic. *)

val load_text :
  label:string -> string ->
  [ `Absent | `Damaged of string | `Loaded of string * string list ]
(** Read a {!save_text} file back with the store load's warnings.  Never
    raises on a bad file: one that cannot be read (e.g. a directory),
    lacks the blob, or fails its page checksums or framing is
    [`Damaged]. *)
