(** Runtime code breakdown (paper Figure 8): how the app's online execution
    time divides into code we can optimize and code we cannot. *)

type category =
  | Compiled       (** inside the hot region's compilable set *)
  | Cold           (** compilable/replayable but outside the hot region *)
  | Jni            (** time spent in native code *)
  | Unreplayable   (** methods the capture mechanism refuses *)
  | Uncompilable   (** methods the Android backend cannot process *)

val category_name : category -> string

val of_profile :
  Repro_dex.Bytecode.dexfile -> region:int list -> Profile.t ->
  (category * float) list
(** Fraction of samples per category (all five present, possibly 0), or
    the empty list when the profile holds no samples — there is nothing
    to apportion, and no 0/0 division. *)
