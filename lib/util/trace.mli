(** Pipeline-wide structured tracing and metrics.

    The paper's argument is quantitative — capture under 15 ms (Figure 10),
    small snapshots (Figure 11), cheap verified replays — so every stage of
    the reproduction can report where its time goes through this module:
    nestable timed {e spans} plus monotonic {e counters} and last-write
    {e gauges}.  Two exporters are provided: Chrome [trace_event] JSON
    (load the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}) and a plain-text summary table.

    {b Domain safety.}  Span events are appended to a per-domain buffer
    (domain-local storage, single writer) and merged at export time; the
    exported [tid] is the OCaml domain id, so a parallel [Evalpool] run
    shows its worker domains as separate tracks.  Counters and gauges are
    shared and mutex-protected.  Export/reset are meant to run on the main
    domain while no worker domain is recording: between evaluation
    batches, when the pool's workers sit idle and the pool's completion
    handshake has published their buffers.

    {b Cost.}  When tracing is disabled — the default — every probe is a
    single [Atomic.get] and nothing is allocated, so instrumented hot paths
    (one span per LIR pass, counters per cache hit) cost ~nothing. *)

type phase = B | E
(** Span begin/end, mirroring the Chrome [ph] field. *)

(** One recorded span edge, in Chrome [trace_event] vocabulary. *)
type event = {
  ev_name : string;                (** span name *)
  ev_cat : string;                 (** category (Chrome [cat] field) *)
  ev_ph : phase;                   (** begin or end *)
  ev_ts : float;                   (** seconds since [enable]/[reset] *)
  ev_tid : int;                    (** OCaml domain id of the emitter *)
  ev_seq : int;                    (** per-domain emission order *)
  ev_args : (string * string) list; (** free-form key/value annotations *)
}

val enabled : unit -> bool
(** Whether probes currently record anything. *)

val enable : unit -> unit
(** Start recording (resets the clock epoch on first use). *)

val disable : unit -> unit
(** Stop recording; already-recorded data stays readable/exportable. *)

val reset : unit -> unit
(** Drop all recorded events, counters and gauges and restart the clock
    epoch.  Call from the main domain while no worker is recording (between
    batches). *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (default: the monotonic {!Clock.now}, so span
    durations stay non-negative across wall-clock steps); for tests that
    need deterministic timestamps.  Call [reset] afterwards. *)

val span : ?cat:string -> ?args:(string * string) list ->
  string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a nested span on the calling domain.
    The end event is emitted even when [f] raises.  [cat] defaults to
    ["repro"]. *)

val add : string -> int -> unit
(** [add counter n] bumps a monotonic counter (no-op when disabled). *)

val incr : string -> unit
(** [incr counter] is [add counter 1]. *)

val gauge : string -> float -> unit
(** Record the latest value of a gauge. *)

val counter_value : string -> int
(** Current value of a counter (0 if never bumped). *)

val events : unit -> event list
(** Merged snapshot of every domain's span events, ordered by
    [(ts, tid, seq)]. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val to_chrome_json : unit -> string
(** The whole trace as Chrome [trace_event] JSON: one [B]/[E] pair per
    span, one [C] event per counter/gauge.  Field order and string
    escaping are stable (locked by the golden test). *)

val write_chrome : string -> unit
(** [write_chrome file] writes [to_chrome_json () ^ "\n"] to [file]. *)

val print_summary : unit -> unit
