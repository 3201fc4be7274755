(** A weight-budgeted, string-keyed least-recently-used cache with O(1)
    [find] and [add]: a hash table from key to node plus an intrusive
    doubly-linked recency list.

    Every entry has a caller-given weight (bytes, or 1 to bound the entry
    count).  After each {!add} or {!set_budget} the cache evicts from the
    cold end until the total weight is within the budget — a single entry
    heavier than the whole budget therefore evicts everything, itself last.

    Not thread-safe: a cache has one owner, which serializes access itself
    (a mutex, or by touching it from a single domain only). *)

type 'a t

val create :
  ?on_evict:(string -> 'a -> unit) ->
  budget:int -> weight:('a -> int) -> unit -> 'a t
(** [weight] is evaluated once per inserted value; negative weights count
    as 0, as does a negative [budget].  [on_evict] runs once per victim,
    coldest first, after the victim has left the cache. *)

val find : 'a t -> string -> 'a option
(** The cached value, marked most recently used. *)

val mem : 'a t -> string -> bool
(** Presence test that leaves the recency order alone. *)

val add : 'a t -> string -> 'a -> unit
(** Insert as most recently used, then evict down to the budget.  First
    writer wins: when [key] is already present nothing changes, not even
    its recency. *)

val budget : _ t -> int

val set_budget : 'a t -> int -> unit
(** Change the budget; shrinking evicts immediately. *)

val length : _ t -> int
val weight : _ t -> int
(** Total weight of the live entries. *)

val evictions : _ t -> int
(** Entries evicted since creation or the last {!reset}. *)

val reset : _ t -> unit
(** Drop every entry (without calling [on_evict]) and zero the eviction
    count. *)
