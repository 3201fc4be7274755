(** Bump-pointer allocation over the paged heap mapping.

    Collection is modelled as a pause charged at safepoint polls (see
    {!Exec_ctx.safepoint}); memory is reclaimed between executions by
    rebuilding the process image, which is how replays run anyway. *)

type t

exception Out_of_memory

val create : Repro_os.Mem.t -> base:int -> npages:int -> t

val restore : Repro_os.Mem.t -> base:int -> npages:int -> next:int -> t
(** Rebuild an allocator whose bump pointer is at [next] — used by the
    replay loader so re-executed regions allocate the same addresses. *)

val alloc : t -> nwords:int -> int
(** Returns the byte address of a zeroed block.  @raise Out_of_memory. *)

val used_words : t -> int
val next_addr : t -> int
(** First unallocated address; allocations are contiguous from the heap's
    start address. *)
