(** Deterministic cycle-level timeline capture (the [turnpike-cli trace]
    engine, shared with the test suite).

    {!capture} runs one benchmark under every rung of the ablation ladder
    ({!Scheme.ladder}), each rung as one pool task with its own telemetry
    sink keyed by the ladder index, and merges the sinks by (task, seq).
    Events are stamped with simulated cycles and wall-clock producers are
    never routed into these sinks, so the export is a pure function of
    (benchmark, params): byte-identical at any [--jobs] count. *)

module Suite = Turnpike_workloads.Suite

type t = {
  benchmark : string;
  params : Run.params;
  schemes : string list;  (** ladder rung names, in order *)
  events : Turnpike_telemetry.event list;  (** merged, (task, seq) order *)
  per_task : int list;  (** events captured per rung *)
  dropped : int;  (** capacity-overflow events across all rungs *)
}

val capture : ?jobs:int -> ?params:Run.params -> Suite.entry -> t
(** Simulate the ladder (fanning rungs over the pool) and collect the
    merged timeline. *)

val chrome : t -> string
(** Chrome trace-event JSON: one process per ladder rung (named
    ["scheme/benchmark"]), one named thread per timing-model track
    (regions, stalls, verify, store-buffer, clq). Loadable in Perfetto. *)

val jsonl : t -> string
(** Self-describing JSONL export of the merged events. *)

val sensor_metadata : t -> string
(** JSON description of the sensor deployment implied by [params.wcdl]
    (via {!Turnpike_arch.Sensor.for_wcdl} at the paper's 2.5GHz clock). *)
