(** Deterministic, splittable pseudo-random number generator.

    All stochastic behaviour in the reproduction (measurement noise, genetic
    operators, workload draws) flows through values of type {!t} so that every
    experiment is reproducible from a single seed.  The generator is a
    SplitMix64: fast, statistically sound for simulation purposes, and
    trivially splittable into independent streams. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator stream. *)

val split : t -> t
(** [split t] derives an independent stream; [t] itself advances. *)

val copy : t -> t
(** [copy t] duplicates the current state (both copies produce the same
    subsequent values). *)

val cursor : t -> int64
(** [cursor t] captures the exact stream position.  Recorded per batch in
    search checkpoints so a resumed run can prove it is replaying the same
    draw sequence. *)

val of_pair : int -> int -> t
(** [of_pair seed index] derives a stream that depends only on the pair:
    the same [(seed, index)] always yields the same stream, and different
    indices give statistically independent streams.  Used to decouple
    per-evaluation measurement noise from evaluation scheduling. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val bits64 : t -> int64
(** Raw 64 random bits. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal draw. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a normal draw; used for multiplicative timing noise. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
