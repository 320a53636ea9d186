(** End-to-end driver: build a workload, compile it under a scheme, trace
    it, replay the trace on the scheme's machine, and report counters.
    Compilation and tracing are cached per (benchmark, scale, compile key):
    traces depend only on the binary, so one trace serves every WCDL /
    machine variation of a scheme.

    The cache is domain-safe and in-flight-latched: concurrent
    {!Turnpike_parallel} workers asking for the same key block until the first
    worker publishes, so a binary is never compiled twice. *)

open Turnpike_ir
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Sim_stats = Turnpike_arch.Sim_stats
module Suite = Turnpike_workloads.Suite

type compiled_run = {
  compiled : Pass_pipeline.t;
  trace : Trace.t;
  final : Interp.state;  (** architectural state at end of trace window *)
}

type result = {
  scheme : string;
  benchmark : string;
  stats : Sim_stats.t;
  static_stats : Static_stats.t;
  trace : Trace.t;
}

val default_scale : int
val default_fuel : int

type params = {
  scale : int;  (** workload scale factor (iteration multiplier) *)
  fuel : int;  (** interpreter step budget *)
  wcdl : int;  (** worst-case detection latency in cycles *)
  sb_size : int;  (** store-buffer entries (compile target and machine) *)
  baseline_sb : int;  (** store-buffer entries of the normalization baseline *)
}
(** The complete run configuration as one record. Drivers derive
    variations with [{ params with ... }] instead of threading five
    optional arguments through every call. *)

val default_params : params
(** [scale 8, fuel 400_000, wcdl 10, sb_size 4, baseline_sb 4] — the
    paper's default operating point. *)

val compile_with : params -> Scheme.t -> Suite.entry -> compiled_run

val run_with :
  ?tel:Turnpike_telemetry.sink -> params -> Scheme.t -> Suite.entry -> result
(** Compile (cached), trace (cached) and simulate. [tel] (default
    {!Turnpike_telemetry.null}) receives the simulation's cycle-stamped
    timeline (see {!Turnpike_arch.Timing.simulate}); compile spans are
    not routed here because a cache hit would skip them — profile
    compiles with {!Pass_pipeline.compile} directly. *)

val normalized_with : params -> Scheme.t -> Suite.entry -> float * result
(** Run baseline (at [baseline_sb]) and scheme, returning
    (overhead, result).
    @raise Degenerate_baseline if the baseline simulated 0 cycles. *)

val clear_cache : unit -> unit
(** Drop every cached compile/trace (forcing recompilation on the next
    {!compile_with}) and invalidate in-flight compilations: a worker
    that started compiling before the clear will complete but not publish
    its result. *)

exception Degenerate_baseline of string
(** Raised by {!overhead} when the baseline simulated zero cycles — an
    empty or truncated trace that would otherwise masquerade as "no
    overhead". The message names both runs. *)

val overhead : baseline:result -> result -> float
(** Normalized execution time (the paper's y-axis): cycles divided by the
    baseline run's cycles.
    @raise Degenerate_baseline if the baseline simulated 0 cycles. *)
