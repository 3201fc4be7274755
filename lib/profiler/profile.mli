(** Sample-based profiles, as produced by Android's sampling profiler with
    a 1 ms period (paper §3.1). *)

type t = {
  samples : (int * bool) list;   (** (method id, in JNI native) per sample *)
  total : int;
}

val of_ctx : Repro_vm.Exec_ctx.t -> t
(** Harvest the samples accumulated in a context. *)

val exclusive : t -> int -> int
(** Non-native samples attributed to a method (its exclusive runtime). *)

val hottest : t -> (int * int) list
(** (method id, exclusive samples) sorted by sample count descending, ties
    broken by ascending method id — the order is a deterministic function
    of the profile, so downstream region selection never depends on hash
    iteration order. *)
