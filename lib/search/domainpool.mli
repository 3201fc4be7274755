(** A persistent pool of worker domains shared across evaluation batches.

    [Evalpool] runs every parallel stage on one process-wide pool, so
    domain spawn/join costs are paid once per process rather than per
    batch, and a worker's domain-local state survives from one batch to
    the next.  A [Domainpool]
    spawns its worker domains once; each {!run} call hands the same job
    closure to every worker (the calling domain participates as worker 0)
    and returns when all of them have finished.  One job runs at a time —
    the serve scheduler interleaves tenants at batch granularity, so the
    one pool bounds the whole process's parallelism no matter how many
    searches are active.

    Memory publication: a worker's writes made during a job are visible to
    the caller when {!run} returns (the completion handshake goes through
    the pool's mutex). *)

type t

val create : workers:int -> t
(** [create ~workers:n] spawns [n - 1] persistent domains; the caller acts
    as the [n]-th worker.  [n] must be >= 1; [n = 1] spawns nothing and
    {!run} degenerates to a plain call. *)

val size : t -> int
(** Total worker count, including the calling domain. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job wid] once on every worker ([wid] 0 on the
    calling domain, 1.. on the pool domains) and returns when all are
    done.  [job] must confine its exceptions (capture them into result
    slots): an exception escaping a pool domain is swallowed, one escaping
    the caller's share is re-raised after the handshake.  Calls must not
    be nested or concurrent — the pool serves one job at a time. *)

val shutdown : t -> unit
(** Join the pool domains.  Idempotent; the pool must not be used after.
    Needed only to release a pool's domains while the process goes on
    running: workers blocked between jobs do not keep the process alive,
    which exits when its main domain does. *)
