(** The LIR executor: runs decomposed-dialect graphs under the cycle cost
    model — the "hardware" the compiled binaries execute on.

    Unlike the interpreter, it performs no implicit checks: safety comes
    only from the Guard* instructions present in the code.  If an unsound
    optimization removed a guard the raw access proceeds, yielding either a
    silently wrong value (a mapped but wrong address) or a {!Segfault}
    (unmapped address) — the two runtime failure modes of Figure 1.

    Integer division follows ARM semantics: [x / 0 = 0] (no trap); the Java
    exception is produced by [GuardDivZero]. *)

exception Segfault of string

(** {2 The instruction semantics}

    The one definition of what an LIR instruction, a function entry and a
    terminator do: {!run_func} is a block loop over these functions, and
    {!Blockexec}'s exact path, barriers and terminators call them too. *)

val fetch_penalty_of : Repro_hgraph.Hir.func -> int
(** Per-function static control-transfer penalty: instruction-cache
    pressure + register-spill reloads.  Charged on every branch. *)

val binop_cost : Repro_vm.Cost.model -> Repro_dex.Ast.binop -> Repro_vm.Value.t -> int
(** Cycle cost of a binop given its (runtime) first operand. *)

val eval_binop_arm :
  Repro_dex.Ast.binop -> Repro_vm.Value.t -> Repro_vm.Value.t -> Repro_vm.Value.t
(** ARM-style division semantics: [x / 0 = 0], [x % 0 = x], no trap. *)

val perturb_value : Repro_vm.Value.t -> Repro_vm.Value.t
(** Shape-preserving corruption, used by the [Exec_wrong_ret] and
    [Replay_regs] fault points. *)

val frame :
  Repro_hgraph.Hir.func -> Repro_vm.Value.t list -> Repro_vm.Value.t array
(** A call's register file, the arguments in its first registers. *)

val fault_entry : Repro_vm.Exec_ctx.t -> Repro_hgraph.Hir.func -> bool
(** A function entry's fault points, inside a {!Repro_util.Faults}
    scope: fires [Exec_crash] and [Exec_hang], and returns whether
    [Exec_wrong_ret] fired (the [~wrong_ret] of {!exec_ret}). *)

val as_ref : Repro_vm.Value.t -> int
(** The address a reference (or, in guard-free code, an integer) names.
    @raise Segfault on a non-pointer value. *)

val exec_instr :
  Repro_vm.Exec_ctx.t -> Repro_vm.Value.t array -> Repro_hgraph.Hir.instr ->
  unit
(** One instruction: its charge through {!Repro_vm.Exec_ctx.charge},
    then its effect.  [Invalid_argument] from type confusion in
    guard-stripped code, or from an access to an unmapped address, is
    converted to {!Segfault}. *)

val exec_if :
  Repro_vm.Exec_ctx.t -> Repro_vm.Value.t array -> fetch:int ->
  Repro_dex.Bytecode.cond -> Repro_hgraph.Hir.reg ->
  Repro_hgraph.Hir.reg option -> Repro_hgraph.Hir.bid ->
  Repro_hgraph.Hir.bid -> Repro_hgraph.Hir.hint -> Repro_hgraph.Hir.bid
(** The [If] terminator: charges the branch and returns the successor. *)

val exec_ret :
  Repro_vm.Exec_ctx.t -> Repro_vm.Value.t array -> wrong_ret:bool ->
  Repro_hgraph.Hir.reg option -> Repro_vm.Value.t option

val exec_throw :
  Repro_vm.Exec_ctx.t -> Repro_vm.Value.t array -> Repro_hgraph.Hir.reg -> 'a

val block_hook : (int -> int -> int -> unit) option ref
(** Lockstep observation point: when set, both executors fire it at every
    block entry with (method id, block id, cycles-so-far).  Used by the
    differential tests to locate the first divergent block.  Not
    domain-safe; intended for single-domain test harnesses only. *)

val run_func :
  Repro_vm.Exec_ctx.t -> Repro_hgraph.Hir.func ->
  Repro_vm.Value.t list -> Repro_vm.Value.t option
(** Execute one compiled method; callees are routed through
    {!Repro_vm.Exec_ctx.invoke}.
    @raise Segfault, Repro_vm.Exec_ctx.App_exception, Timeout. *)

val dispatcher :
  Binary.t ->
  (Repro_vm.Exec_ctx.t -> int -> Repro_vm.Value.t list -> Repro_vm.Value.t option)
(** A dispatch function executing methods present in the binary as compiled
    code and everything else through the interpreter — the mixed-mode
    runtime of a real Android process. *)

val install : Repro_vm.Exec_ctx.t -> Binary.t -> unit
