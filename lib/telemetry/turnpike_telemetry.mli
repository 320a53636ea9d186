(** Counters, spans and a bounded event sink with pluggable export (JSONL
    and Chrome trace-event JSON, loadable in Perfetto).

    The library has no Turnpike dependencies and sits next to
    {!Turnpike_parallel} below every simulation layer. Three producers feed
    it: the cycle-level timing model (cycle-stamped timeline), the compile
    pipeline (per-pass wall-clock spans) and the domain pool (per-task and
    per-worker utilization spans).

    {b Determinism.} Every event carries a (task, seq) key: [task]
    identifies the producing sink — one sink per unit of parallel work —
    and [seq] is the sink-local emission index. {!merge} sorts by that
    key, so merged output depends only on what each task emitted, never on
    domain interleaving: cycle-stamped timelines export byte-identically
    at any [--jobs] count.

    {b Cost.} The {!null} sink is permanently disabled. Emission sites
    guard on {!enabled} (one immutable-field load), so simulation with
    telemetry off pays a predictable branch per would-be event and
    allocates nothing. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Counter  (** sampled value, Chrome ph "C" *)
  | Instant  (** point event, ph "i" *)
  | Begin  (** open a span on (task, tid), ph "B" *)
  | End  (** close the innermost open span, ph "E" *)
  | Complete of int  (** self-contained span with duration, ph "X" *)

type event = {
  task : int;  (** producing sink's task index (merge key, Chrome pid) *)
  seq : int;  (** sink-local emission index (merge tiebreaker) *)
  ts : int;  (** timestamp: simulation cycle or wall-clock microsecond *)
  tid : int;  (** track within the task (Chrome tid) *)
  cat : string;
  name : string;
  kind : kind;
  args : (string * value) list;
}

type sink

val null : sink
(** The permanently disabled sink: {!emit} returns immediately, nothing is
    ever stored. Default everywhere telemetry is optional. *)

val create : ?task:int -> ?capacity:int -> unit -> sink
(** An enabled sink holding at most [capacity] (default 1,000,000)
    events; further emissions are counted in
    {!dropped} instead of stored. [task] (default 0) keys every event this
    sink produces. Pushes are serialized internally, so one sink may be
    shared across domains. @raise Invalid_argument on non-positive
    capacity. *)

val enabled : sink -> bool
val task : sink -> int

val emit :
  sink ->
  ?ts:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * value) list ->
  kind ->
  string ->
  unit
(** [emit sink kind name] appends one event. No-op on a disabled sink. *)

val counter : sink -> ts:int -> string -> (string * value) list -> unit
(** Sampled values (category ["counter"]); Perfetto renders each arg as a
    series. *)

val instant :
  sink -> ts:int -> ?tid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit

val span_begin :
  sink -> ts:int -> ?tid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit

val span_end :
  sink -> ts:int -> ?tid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit

val complete :
  sink -> ts:int -> dur:int -> ?tid:int -> ?cat:string ->
  ?args:(string * value) list -> string -> unit
(** A self-contained span of [dur] at [ts] (clamped to non-negative). *)

val events : sink -> event list
(** Everything stored so far, in emission (seq) order. *)

val length : sink -> int

val dropped : sink -> int
(** Events rejected because the sink was at capacity. *)

val merge : sink list -> event list
(** All events of all sinks, sorted by (task, seq): the deterministic
    export order. *)

val total_dropped : sink list -> int
(** Sum of {!dropped} across [sinks] — carried alongside {!merge} so
    bounded-capacity overflow is never silent. *)

(** String-keyed counting histogram with deterministic (key-sorted)
    readout; attribution layers bin events into these. Not thread-safe —
    fill from one domain or merge per-task histograms afterwards. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> ?by:int -> string -> unit
  (** Add [by] (default 1) to the bin for [key]. *)

  val count : t -> string -> int
  (** Current count for [key] (0 when absent). *)

  val to_list : t -> (string * int) list
  (** All (key, count) bins sorted by key — never hash order. *)
end

(** Wall-clock source for {!span_start}/{!with_span}. The stdlib has no
    sub-second wall clock, so executables install [Unix.gettimeofday] at
    startup; the default is [Sys.time] (CPU seconds), which keeps this
    bottom layer dependency-free. *)
module Clock : sig
  val set : (unit -> float) -> unit
  (** Install a clock returning seconds as a float. *)

  val now_us : unit -> int
  (** Current clock reading in microseconds. *)
end

val span_start : sink -> int
(** Read the clock for a later {!span_finish}; returns 0 without touching
    the clock when the sink is disabled. *)

val span_finish :
  sink -> start:int -> ?tid:int -> ?cat:string ->
  ?args:(string * value) list -> string -> unit
(** Emit a {!Complete} wall-clock span started at [start] (from
    {!span_start}); args — e.g. a stats delta computed after the work —
    attach at finish time. No-op on a disabled sink. *)

val with_span : sink -> ?tid:int -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run a thunk under a wall-clock span. An escaping exception still emits
    the span (with an ["error"] arg) and is re-raised. *)

module Export : sig
  val escape : string -> string
  (** JSON string-body escaping (quotes, backslashes, control chars), as
      used by every exporter here — shared so layers above emit JSON with
      identical byte-level conventions. *)

  val jsonl : ?dropped:int -> event list -> string
  (** One self-describing JSON object (task and seq included) per event
      and line. A positive [dropped]
      total (from {!total_dropped}) appends a final
      [{"meta":"telemetry","dropped":N}] line so capacity overflow is
      never silent; [dropped = 0] (the default) adds nothing. *)

  val chrome :
    ?process_names:(int * string) list ->
    ?thread_names:((int * int) * string) list ->
    ?dropped:int ->
    event list ->
    string
  (** Chrome trace-event JSON ({"traceEvents":[…]}), loadable in
      Perfetto / chrome://tracing. Each task renders as a process
      (pid = task, labelled via [process_names]); [tid] separates tracks,
      labelled via [thread_names] keyed by (task, tid). A positive
      [dropped] total surfaces as ["otherData":{"droppedEvents":N}].
      Equal event lists serialize to equal bytes. *)

  val to_file : string -> string -> unit
  (** [to_file path contents]. *)
end
