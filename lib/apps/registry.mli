(** The 21 evaluation applications (paper Table 1): 5 Scimark kernels, 7
    Android-compiler benchmarks, 9 interactive apps. *)

type app_class = Scimark_suite | Art_suite | Interactive_suite

type t = {
  name : string;
  cls : app_class;
  descr : string;
  source : string;                 (** MiniDex source text *)
  image : Repro_vm.Image.config;   (** process memory footprint *)
  expect_hot : (string * string) list;
  (** acceptable hot regions as (class, method); used by tests and docs *)
}

val all : t list
val find : string -> t option
val names : string list

val class_name : app_class -> string

val dexfile : t -> Repro_dex.Bytecode.dexfile
(** Compile the app's source, memoized on the source text: apps with equal
    sources share one dexfile, whatever their names. *)

(** One online input: named static fields poked with raw words after the
    image is built (sizes, shapes, adversarial edge values).  The encoding
    matches {!Repro_vm.Image.build}'s static initializers: [Int64.of_int]
    for ints, [Int64.bits_of_float] for floats. *)
type input = {
  in_label : string;                    (** deterministic description *)
  in_statics : (string * int64) list;   (** "Class.field" -> raw word *)
}

val input_variants : t -> seed:int -> k:int -> input list
(** [k] distinct deterministic inputs for one app; element 0 is always
    the default input.  The rest lead with curated adversarial edges —
    including shapes on which the app's {e reference} execution traps
    (non-power-of-two FFT sizes, out-of-range sparse columns), the inputs
    that expose guard-stripping miscompiles — followed by seeded draws on
    the app's LCG state or size statics.  Apps with no usable axis yield
    fewer than [k] variants.  Pure in [(app, seed, k)], and a prefix:
    [input_variants ~k] is the first [k] elements of [input_variants ~k:n]
    for any [n >= k]. *)

val build_ctx :
  ?seed:int -> ?fuel:int -> ?input:input -> t -> Repro_vm.Exec_ctx.t
(** Fresh process image for one online run of the app, with [input]'s
    static pokes applied (default: none). *)
