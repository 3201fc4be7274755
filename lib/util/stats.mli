(** Statistical methodology from the paper's experimental setup (§4).

    During search each transformation is evaluated 10 times through replay;
    outliers are removed with the median absolute deviation; the relative
    merit of two transformation sets is decided with a two-sided t-test; the
    online-vs-offline study (Figure 3) reports {!percentile} bands over
    independently simulated trajectories. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (division by n-1); 0 for fewer than 2 points. *)

val stddev : float array -> float
val median : float array -> float
(** Median of the values; does not modify the input array. *)

val mad : float array -> float
(** Median absolute deviation around the median. *)

val remove_outliers_mad : ?threshold:float -> float array -> float array
(** Keep points whose modified z-score [0.6745 * |x - median| / MAD] is at
    most [threshold] (default 3.5).  If the MAD is zero the input is returned
    unchanged. *)

val welch_t_test : float array -> float array -> float
(** [welch_t_test a b] returns the two-sided p-value for the null hypothesis
    that [a] and [b] have equal means, using Welch's unequal-variance t-test
    with a normal approximation of the t distribution (adequate for the
    sample sizes used here). *)

val significantly_less : ?alpha:float -> float array -> float array -> bool
(** [significantly_less a b] holds when mean [a] < mean [b] and the t-test
    rejects equality at level [alpha] (default 0.05). *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]; linear interpolation. *)

(** {2 Aggregation helpers}

    Both tolerate degenerate batches — a fleet device that contributed a
    single replay, or a batch whose every point a MAD filter would
    reject — and never raise. *)

val pool_samples : float array array -> float array
(** Concatenate sample batches {e in the given order} (the fleet
    coordinator aggregates in device-id order so pooling is independent
    of device scheduling).  Empty batches contribute nothing; an
    all-empty input yields [[||]]. *)

val robust_mean : float array -> float
(** MAD-filtered mean ({!remove_outliers_mad} then {!mean}): the GA's
    fitness of a measured binary and the pipeline's mean replay time.
    Fewer than three samples are not filtered, so a single sample is its
    own mean, and because the MAD filter returns its input unchanged when
    it would reject every point, an all-outlier batch still yields a
    finite mean.  Empty input yields [nan] rather than raising. *)

val geomean : float array -> float
