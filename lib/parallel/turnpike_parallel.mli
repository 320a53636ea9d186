(** Domain-based work pool underlying every Turnpike fan-out.

    Tasks are indexed and workers pull indices from an atomic counter, so
    scheduling is dynamic but results are always delivered in task order:
    output is identical regardless of the number of domains. The library
    has no simulator dependencies and sits below everything else in the
    stack — the experiment grid ({!Turnpike.Experiments}), the per-fault
    injection campaign ({!Turnpike_resilience.Verifier}) and the
    executables all share one pool configuration.

    A {!map} issued from inside a pool worker runs sequentially in that
    worker, so nested fan-outs (a campaign inside a grid cell) never
    multiply the domain count past the configured width — and stay
    deterministic. *)

val set_telemetry : Turnpike_telemetry.sink -> unit
(** Install a pool telemetry sink. While an enabled sink is installed,
    every {!map} records one wall-clock span per task (tid = executing
    worker index, ["pool"] category), a map-level span, and publishes a
    {!map_stats} summary via {!last_map_stats}. Install
    {!Turnpike_telemetry.null} (the initial state) to turn recording off;
    the task loop then performs no clock reads. Nested maps record
    nothing: their time is accounted to the enclosing worker's task
    span. *)

type map_stats = {
  tasks : int;
  jobs : int;  (** workers used, including the calling domain *)
  wall_us : int;  (** wall-clock of the whole map call *)
  busy_us : int array;  (** per-worker task time; index 0 = calling domain *)
  worker_tasks : int array;  (** tasks executed per worker *)
}

val utilization : map_stats -> float
(** Mean worker utilization in [0, 1]: total busy time over
    [jobs × wall]. The pool-health number multi-core scaling claims rest
    on. *)

val last_map_stats : unit -> map_stats option
(** The summary of the most recent recorded (non-nested) {!map}, if any
    map ran while an enabled telemetry sink was installed. *)

val max_jobs : int
(** 128: the widest pool, the OCaml 5 runtime's limit on domains running
    at once. *)

val set_default_jobs : int -> unit
(** Set the pool width used when [?jobs] is not passed. [0] restores the
    default: [Domain.recommended_domain_count ()]. This is what the
    [--jobs N] flag of the executables sets.
    @raise Invalid_argument naming the width unless it is from 0 to
    {!max_jobs}. *)

val effective_jobs : unit -> int
(** The pool width that an unqualified {!map} will use right now. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f tasks] applies [f] to every task, distributing tasks over
    [jobs] domains (default {!effective_jobs}); [results.(i) = f tasks.(i)].
    With [jobs] 0 or 1 (or a single task, or when called from inside
    another [map]'s worker) everything runs sequentially in the calling
    domain — bit-for-bit the pre-parallel behaviour. If any task raises,
    all workers drain and the exception of the lowest-indexed failing
    task is re-raised.
    @raise Invalid_argument naming the width, before any domain is
    spawned, unless [jobs] is from 0 to {!max_jobs}. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val grid :
  ?jobs:int ->
  items:'a list ->
  configs:'c list ->
  ('a -> 'c -> 'b) ->
  ('a * ('c * 'b) list) list
(** [grid ~items ~configs f] evaluates [f item config] over the full
    cartesian product as one flat task list (so the pool sees the whole
    (benchmark × config) grid at once), then regroups the results per item
    in input order. *)
