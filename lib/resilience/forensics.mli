(** AVF-style vulnerability attribution over fault campaigns.

    Every fault of a campaign gets its own telemetry sink (task = fault
    index) receiving the {!Recovery} forensic lifecycle — {!campaign}
    wraps the one campaign driver, {!Verifier.run_campaign}, at a fixed
    fault count or under a stopping rule alike — and the verifier
    outcomes are folded into vulnerability histograms keyed by static
    instruction site, struck register and static region, derated by
    class: masked and detected-recovered faults contribute nothing,
    SDCs and crashes are the architecture-visible failures.

    Determinism: records are built in fault order, tables rank by a total
    order, and {!merged_events} concatenates per-fault streams in task
    order — byte-identical at any [--jobs] count and across
    snapshot-forked vs from-scratch replays. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry
module Pass_pipeline = Turnpike_compiler.Pass_pipeline

type clazz = Masked | Detected | Sdc | Crashed

val classify : Verifier.outcome -> clazz
(** [Recovered] with no detection is [Masked] (the strike was scheduled
    past program exit and never landed — every landed strike is detected,
    by the sensors at the latest); [Recovered] after detections is
    [Detected]. *)

val clazz_name : clazz -> string

(** One distilled per-fault record: the verdict plus the landmarks of the
    lifecycle trace (absent when the strike never landed). *)
type record = {
  index : int;  (** absolute fault index in the campaign *)
  fault : Fault.t;
  clazz : clazz;
  outcome : Verifier.outcome;
  site : string option;  (** ["block:index"] of the strike *)
  region : int option;  (** open static region id at the strike *)
  detect_kind : string option;  (** ["sensor"] / ["parity"] *)
  detect_latency : int option;  (** fault-free positions, strike → detect *)
  rewind : int option;  (** positions discarded by the first rollback *)
  events : Telemetry.event list;  (** the full lifecycle stream *)
  dropped : int;  (** sink overflow count — surfaced, never silent *)
}

val record_of :
  index:int -> fault:Fault.t -> outcome:Verifier.outcome -> Telemetry.sink ->
  record
(** Distill the sink a {!Verifier.run_one} call filled for [fault]. *)

(** {2 Attribution} *)

type counts = { masked : int; detected : int; sdc : int; crashed : int }

val zero_counts : counts
val counts_total : counts -> int

val failures : counts -> int
(** [sdc + crashed]: the architecture-visible failures. *)

val vulnerability : counts -> float
(** AVF derating: [failures / total] for the bin ([0.0] when empty). *)

type row = { key : string; counts : counts }

type table = row list
(** Ranked most-dangerous-first: failure count, then vulnerability, then
    total exposure, then key — a total, deterministic order. *)

val rank : row list -> table
(** The table sorter. Ties break on {!Turnpike_analysis.Rank.key_compare}
    — the same natural key order {!Turnpike_analysis.Vuln.rank} uses, so
    the dynamic and static tables are comparable row-for-row. *)

type summary = {
  rung : string;  (** compiler rung / scheme label the campaign ran under *)
  total : int;
  landed : int;  (** strikes that hit before program exit *)
  by_class : counts;
  by_site : table;  (** keyed ["block:index"] (strike site) *)
  by_register : table;  (** keyed by struck register (landed or not) *)
  by_region : table;  (** keyed by static region id at the strike *)
  mean_detect_latency : float;  (** fault-free positions, over detections *)
  mean_rewind : float;  (** positions discarded, over rollbacks *)
  dropped_events : int;  (** total sink overflow across the campaign *)
}

val summarize : ?rung:string -> record list -> summary

(** {2 Campaign glue} *)

val merged_events : record list -> Telemetry.event list
(** All lifecycle events in fault (task) order — the deterministic export
    stream. *)

val total_dropped : record list -> int

val campaign :
  ?jobs:int ->
  ?config:Recovery.config ->
  ?plan:Snapshot.plan ->
  ?stopping:Verifier.stopping ->
  ?tel:Telemetry.sink ->
  golden:Interp.state ->
  compiled:Pass_pipeline.t ->
  Fault.t list ->
  record list * Verifier.campaign
(** {!Verifier.run_campaign} with one sink per fault, its outcomes folded
    into records (fault order). The records cover exactly the faults the
    campaign consumed: all of them without [stopping], the consumed
    prefix with it. [tel] receives the Wilson trajectory under
    [stopping]. *)

(** {2 Serialization} *)

val record_to_json : record -> string
val table_to_json : table -> string
val summary_to_json : summary -> string

(** {2 Compiler mutant} *)

val drop_checkpoint_mutant :
  Pass_pipeline.t -> (Pass_pipeline.t * Reg.t * int list) option
(** Mutate the compiled program in place (shared with the differential
    tests): delete every checkpoint of one recoverable live-in register
    and wipe the claims, modelling a pruning bug; returns the mutated
    pipeline, the victim register and the sorted ids of the regions that
    carried it live-in (the ground-truth faulty sites), or [None] when no
    region has a checkpointed live-in. Restarts into an affected region
    then restore a stale value, so a forensic campaign's region table
    ranks an affected region first — the [report] CLI's conviction
    demo. *)
