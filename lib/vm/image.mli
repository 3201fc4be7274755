(** Standard process image: the memory layout of a running app.

    Builds the mappings the capture mechanism later walks through
    /proc/self/maps: immutable runtime pages (boot-common, the same
    {!boot_image} in every app), memory-mapped code files (never
    captured, only their paths are logged), static fields, heap, stack
    and GC auxiliary structures (unsafe to protect, always stored).  The
    other page counts are per-app configuration, which is what makes the
    capture-cost and storage experiments (Figures 10/11) vary across
    applications. *)

type config = {
  code_pages : int;
  heap_pages : int;      (** heap capacity *)
  stack_pages : int;
  gc_aux_pages : int;
  extra_maps : int;      (** additional small .so mappings (maps entries) *)
  warm_heap_pages : int; (** live heap pages predating the hot region *)
}

val default_config : config

val statics_base : int

val boot_image : Repro_os.Mem.image
(** The 3,225 boot-common runtime pages (12.6 MB), one position-dependent
    word each.  Built once per process when this module initializes,
    before any worker domain starts; every context {!build} makes maps
    these immutable frames instead of its own copy, and so do snapshot
    templates. *)

val build :
  ?config:config -> ?seed:int -> ?fuel:int ->
  Repro_dex.Bytecode.dexfile -> Exec_ctx.t
(** Fresh address space with all regions mapped, the {!boot_image}
    mapped, stack/GC pages materialized, static initializers applied, and
    an execution context around it (no dispatcher installed yet). *)
