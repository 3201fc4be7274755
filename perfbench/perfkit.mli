(** Pure helpers of the benchmark harness: run-to-run spread, a minimal
    JSON reader and writer, span self time from trace events, metric-name
    validation and the [compare] verdict rule.  Nothing here touches the
    clock, the file system or the pipeline, so the unit tests can pin every
    function on hand-made inputs. *)

(** {1 Spread} *)

val quartiles : float list -> float * float * float
(** First, second and third quartile, computed exactly as Python's
    [statistics.quantiles(values, n=4)] (its default "exclusive" method),
    which is how a run set's spread is judged.  One value gives that value
    three times.  @raise Invalid_argument on an empty list. *)

val spread : float list -> float
(** Distance between the first and third quartile as a share of the
    median: the run-to-run spread a bound is checked against.  0 for fewer
    than two values or a zero median. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_of_string : string -> json
(** Parse one JSON document (RFC 8259; [\u] escapes are re-encoded as
    UTF-8).  @raise Failure with a position on malformed input. *)

val json_to_string : ?pretty:bool -> json -> string
(** One-line rendering, or one object member per line with [pretty].
    Numbers keep every digit needed to read the same float back; integral
    values print without a fraction.  Non-finite numbers, which JSON cannot
    carry, print as [null]. *)

val member : string -> json -> json
(** [member key obj] is the value under [key], or [Null] when [obj] is not
    an object or lacks the key. *)

val to_num : json -> float option
val to_str : json -> string option

(** {1 Span self time} *)

(** One closed span instance recovered from begin/end events. *)
type span = {
  sp_name : string;
  sp_tid : int;       (** domain that ran it *)
  sp_dur : float;     (** seconds, end minus begin *)
  sp_self : float;    (** [sp_dur] minus the durations of its direct children *)
}

val spans : Repro_util.Trace.event list -> span list
(** Pair every domain's begin/end events (in that domain's emission order)
    into spans.  A span's children are the spans nested directly inside it
    {e on the same domain}: work a parent waits for on another domain is
    not subtracted from its self time.  An end closes the most recent open
    span of its name even when later-opened spans are still open (spans
    opened under an effect handler interleave instead of nesting); the
    closed span counts as a child of the span open just below it.
    Unmatched ends are ignored, and spans still open at the end are
    dropped. *)

(** {1 Metric names} *)

val valid_metric_name : string -> bool
(** A letter or digit, then letters, digits, [_], [.] or [-]; at most 64
    characters in all. *)

(** {1 Compare verdicts} *)

type better = Lower | Higher

type verdict =
  | Agree       (** the medians differ by no more than the bound *)
  | Regressed   (** the second set is worse than the first by more than the bound *)
  | Improved    (** the second set is better than the first by more than the bound *)
  | Unresolved  (** either set's own spread is wider than the bound *)

val better_of_string : string -> better option
val verdict_name : verdict -> string

val judge : better:better -> bound:float -> float list -> float list -> verdict
(** [judge ~better ~bound a b] compares the medians of two non-empty value
    sets, the change measured as a share of [a]'s median. *)
