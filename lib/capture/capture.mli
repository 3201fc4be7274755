(** The online capture mechanism (paper §3.2, Figure 4).

    Wrapped around one execution of the hot region in the live process:

    + fork a child — Copy-on-Write preserves the pristine memory image;
    + walk /proc-style mappings and read-protect the app's data pages;
    + a fault handler records each page the region touches, then restores
      access so execution continues;
    + after the region ends, the child spools the recorded pages' original
      contents (plus the unprotectable stack/GC-auxiliary pages) to storage.

    The measured overhead (fork, preparation, faults + CoW) is charged to
    the online execution context in simulated milliseconds — that is the
    user-visible cost Figure 10 reports. *)

(** Per-capture cost breakdown, in simulated milliseconds — the
    user-visible online overhead reported by Figure 10. *)
type overhead = {
  fork_ms : float;              (** the CoW fork of the live process *)
  preparation_ms : float;       (** maps parsing + page protection *)
  fault_cow_ms : float;         (** in-region page faults and CoW copies *)
  n_faults : int;               (** protection faults taken in the region *)
  n_cow : int;                  (** pages copied by the kernel CoW *)
  n_map_entries : int;          (** address-space mappings walked *)
  n_protected : int;            (** pages read-protected before the region *)
}

val total_ms : overhead -> float
(** Sum of every [_ms] component: the total charge to the online run. *)

(** What one capture produces. *)
type result = {
  snapshot : Snapshot.t;                  (** the replayable snapshot *)
  overhead : overhead;                    (** its online cost *)
  region_ret : Repro_vm.Value.t option;   (** the region's own result *)
  region_exn : exn option;
  (** the exception the region raised, when captured with
      [harvest_on_exn] (otherwise always [None]) *)
}

val capture_region :
  app:string ->
  ?harvest_on_exn:bool ->
  ?eager:bool ->
  Repro_vm.Exec_ctx.t -> mid:int -> args:Repro_vm.Value.t list ->
  run:(unit -> Repro_vm.Value.t option) ->
  result
(** Capture one execution of region [mid].  [run] performs the actual
    region execution (through whatever dispatcher is installed); the
    capture machinery forks, protects, observes and then harvests the
    snapshot from the child.  When a device store is attached
    ({!Snapshot.set_store}), the snapshot's pages are enqueued to it
    ({!Snapshot.store}) as soon as it is built.  Exceptions from [run]
    propagate after the capture state is torn down — unless
    [harvest_on_exn] (default false) is set, in which case the snapshot
    is still harvested (the forked child's pages predate the region, so
    the trap cannot corrupt them) and the exception is returned in
    [region_exn].  Corpus capture uses this for adversarial inputs on
    which the region itself traps.

    [eager] (default false) is the CERE-style ablation of §6 (Figure 10's
    [--eager]): every recorded page is copied at fault time in user space
    instead of relying on kernel Copy-on-Write, inflating the in-region
    overhead. *)
