(** Execution context shared by the bytecode interpreter and the LIR
    executor: the simulated device state for one program run.

    It owns the cycle counter (the measured quantity), the sampling profiler
    hook, the GC accounting, the method-call dispatcher that routes each call
    to interpreted or compiled code, and the capture/replay hooks fired
    around every method invocation. *)

module B = Repro_dex.Bytecode

exception App_exception of int
(** A MiniDex-level exception carrying its int error code.  Runtime errors
    use the reserved codes below. *)

exception Timeout
(** Raised when the cycle budget ([fuel]) is exhausted. *)

val exc_null_pointer : int
val exc_out_of_bounds : int
val exc_div_by_zero : int
val exc_stack_overflow : int

type sample = { s_method : int; s_native : bool }

type call_site = int * int  (** method id, pc *)

type t = {
  dx : B.dexfile;
  mem : Repro_os.Mem.t;
  heap : Heap.t;
  cost : Cost.model;                 (** always {!Cost.default} *)
  statics_base : int;
  mutable cycles : int;
  mutable fuel : int;
  rng : Repro_util.Rng.t;            (** feeds Sys.rand *)
  io : Buffer.t;                     (** output of Sys.print / Sys.draw *)
  mutable dispatch : t -> int -> Value.t list -> Value.t option;
  mutable on_entry : (int -> Value.t list -> unit) option;
  mutable on_exit : (int -> Value.t option -> unit) option;
  mutable record_vcall : (call_site -> int -> unit) option;
  (** observed receiver class at a virtual call site (interpreted replay) *)
  mutable sample_period : int;       (** cycles between samples; 0 = off *)
  mutable next_sample : int;
  mutable samples : sample list;
  mutable stack : int list;          (** current method ids, innermost first *)
  mutable in_native : bool;
  mutable depth : int;
  mutable alloc_since_gc : int;      (** words *)
  mutable gc_count : int;
  mutable gc_cycles : int;
}

val create :
  ?seed:int -> ?fuel:int ->
  B.dexfile -> Repro_os.Mem.t -> Heap.t -> statics_base:int -> t
(** Default fuel is 2e9 cycles.  The dispatcher defaults to a function that
    fails; install one with {!set_dispatch} (the interpreter provides
    {!Interp.install}). *)

val set_dispatch : t -> (t -> int -> Value.t list -> Value.t option) -> unit

val charge : t -> int -> unit
(** Add cycles; takes a profiler sample when the period elapses.
    @raise Timeout when fuel is exhausted. *)

val invoke : t -> int -> Value.t list -> Value.t option
(** Call a method through the dispatcher, firing the entry/exit hooks and
    maintaining the method stack.  This is the only call path; compiled and
    interpreted code both route callees through it.
    @raise App_exception if the callee throws. *)

val safepoint : t -> unit
(** Charge a suspend-check poll and run the GC pause model if the allocation
    budget since the last collection is exceeded. *)

val alloc_object : t -> int -> int
(** [alloc_object ctx class_id] returns the address of a fresh object
    (header word = class id). *)

val alloc_array : t -> int -> int
(** [alloc_array ctx len] returns the address of a fresh array
    (header word = length).  @raise App_exception negative-size. *)

val obj_class : t -> int -> int
(** Read an object's class id (charges a load). *)

val array_length : t -> int -> int

val field_addr : int -> int -> int
(** [field_addr obj i] — address of instance field slot [i]. *)

val elem_addr : int -> int -> int
(** [elem_addr arr i] — address of array element [i]. *)

val static_addr : t -> int -> int

val elapsed_ms : t -> float
(** Simulated milliseconds for the cycles charged so far. *)

val vtable_target : t -> recv_class:int -> slot:int -> int
(** Dynamic dispatch: method id in the receiver class's vtable. *)
