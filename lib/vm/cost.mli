(** The cycle cost model: the reproduction's stand-in for the Snapdragon 855.

    Both the interpreter and the LIR executor charge cycles from this table,
    so the relative performance of code versions emerges from the
    instructions actually executed.  Latencies are loosely calibrated to a
    big out-of-order ARM core; the absolute values matter less than the
    ratios (memory vs ALU, call overhead vs body, JNI transition cost). *)

type model = {
  int_alu : int;          (** add/sub/logic/compare *)
  int_mul : int;
  int_div : int;
  float_alu : int;
  float_mul : int;
  float_div : int;
  float_conv : int;       (** int<->float conversion *)
  move : int;
  const : int;
  load : int;             (** L1-hit memory load *)
  store : int;
  branch : int;           (** correctly predicted branch *)
  branch_miss : int;      (** misprediction penalty *)
  null_check : int;
  bounds_check : int;
  safepoint : int;        (** GC suspend-check runtime call: load, test, predicted branch *)
  alloc_base : int;
  alloc_per_word : int;
  call_overhead : int;    (** frame setup + argument moves *)
  virtual_extra : int;    (** receiver class load + vtable load + indirect jump *)
  intrinsic_call : int;   (** inlined intrinsic dispatch cost *)
  jni_call : int;         (** JNI transition overhead, both directions *)
  throw_cost : int;
  interp_dispatch : int;  (** interpreter per-bytecode decode overhead *)
  gc_pause_base : int;
  gc_words_divisor : int; (** pause += resident words / divisor *)
  gc_threshold_words : int;
  cycles_per_ms : int;    (** model cycles per simulated millisecond *)
}

val default : model

val native_work : Repro_dex.Bytecode.native -> int
(** Cycles for the computational core of a native (excluding call overhead):
    e.g. sqrt ~ 20, sin/cos ~ 40. *)
