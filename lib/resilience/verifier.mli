(** SDC-freedom verification: compares the observable output (application
    data segment) of a resilient, fault-injected run against a golden
    baseline run. Spill slots and checkpoint storage are implementation
    details and are excluded from the comparison.

    A campaign is [run_one] per fault — a pure function replaying the
    recovery executor — fanned out on the {!Turnpike_parallel} domain
    pool, then folded by the deterministic, fault-ordered {!reduce}.
    {!run_campaign} is the one campaign driver, for a fixed fault count
    and under a Wilson stopping rule alike; its result is identical at
    any job count. *)

open Turnpike_ir

type verdict = Match | Mismatch of { addr : int; golden : int; actual : int }

val compare_states : golden:Interp.state -> actual:Interp.state -> verdict
(** When several data words differ, the lowest-address mismatch is
    reported (stable across hash-table iteration orders and OCaml
    versions). *)

type outcome =
  | Recovered of { detections : Recovery.detection list; reexec_overhead : float }
      (** Output identical to the golden run; [reexec_overhead] is
          (faulted-run steps / golden steps) − 1, the execution cost of
          rollback and re-execution. *)
  | Sdc of { detections : Recovery.detection list; mismatch : verdict }
      (** Silent data corruption: the run completed but its output
          diverges — [mismatch] is the lowest-address difference. *)
  | Crashed of { reason : string }
      (** Recovery failure or fuel exhaustion. *)

val class_name : outcome -> string
(** The forensic class of an outcome: ["masked"] (recovered with no
    detection — the strike was scheduled past program exit and never
    landed), ["detected"] (recovered after at least one detection),
    ["sdc"], or ["crashed"]. *)

val run_one :
  ?config:Recovery.config ->
  ?plan:Snapshot.plan ->
  ?tel:Turnpike_telemetry.sink ->
  golden:Interp.state ->
  compiled:Turnpike_compiler.Pass_pipeline.t ->
  Fault.t ->
  outcome
(** Inject one fault, replay the program under the recovery executor and
    classify the result. Pure (fresh executor state per call): safe to
    fan out across domains. With [plan] (recorded from the same compiled
    program and config) the fault forks from the snapshot nearest its
    strike site instead of replaying from step 0 — same outcome, O(suffix)
    cost — and its output is compared with the pilot's final memory, which
    shares the pages the fork did not write, whenever that memory equals
    [golden]'s output ({!Snapshot.pilot_matches}, checked once per plan):
    the same verdict and mismatch report, without reading the shared
    pages. Fuel exhaustion reports the recovery count and exhaustion step in
    the [Crashed] reason, distinguishing recovery livelock from a wedged
    program.

    [tel] receives the fault's forensic lifecycle (see {!Recovery.run})
    closed by one ["outcome"] instant carrying the {!class_name} and the
    classification detail; forked and from-scratch replays emit
    byte-identical streams. *)

val outcome_to_json : outcome -> string
(** One machine-readable JSON object per outcome, keyed by
    [{"class":...}] with per-class detail (detections, reexec overhead,
    lowest-address mismatch, crash reason). *)

type campaign_report = {
  total : int;
  recovered : int;  (** outputs identical to the golden run *)
  sdc : int;  (** silent data corruptions — must be zero for sound schemes *)
  crashed : int;  (** recovery failures / fuel exhaustion *)
  parity_detections : int;
  sensor_detections : int;
  mean_reexec_overhead : float;
      (** mean of (faulted-run steps / golden steps) − 1 over recovered
          runs ([0.0] when none recovered): the execution cost of rollback
          and re-execution *)
}

val reduce : outcome list -> campaign_report
(** Fold outcomes (in fault order) into a report. Sequential and
    deterministic: the floating-point overhead sum is accumulated in list
    order, so equal outcome lists give bit-equal reports. *)

(** {2 Campaigns}

    Without a stopping rule a campaign runs its whole fault list. With
    one, it streams the seeded list in fixed-size batches and stops as
    soon as a Wilson score confidence interval on the SDC rate is narrow
    enough ("SDC rate ± 1% at 95%"); the Wilson interval stays well
    behaved at zero observed SDCs, where the Wald interval would collapse
    to zero width and stop at once. Batch boundaries and fault order
    derive from the seeded list — never from wall-clock or completion
    order — so the stopping point and the report are identical at any job
    count. *)

type stopping = {
  half_width : float;  (** target CI half-width on the SDC rate *)
  confidence : float;  (** e.g. [0.95] *)
  batch : int;  (** faults per sequential batch (also the parallel grain) *)
  min_faults : int;  (** never stop before this many faults *)
}

val default_stopping : stopping
(** ± 0.05 at 95% confidence, 32-fault batches, at least 64 faults. *)

(** Where a stopping rule left the interval. *)
type ci = {
  sdc_rate : float;
  ci_low : float;
  ci_high : float;
  achieved_half_width : float;
  confidence : float;
  batches : int;  (** batches consumed before stopping *)
  exhausted : bool;
      (** the fault list ran dry before the target width was reached *)
}

type campaign = {
  report : campaign_report;  (** over exactly the faults consumed *)
  outcomes : outcome list;
      (** per-fault outcomes for exactly the consumed prefix, in fault
          order — the forensics layer attributes from these *)
  ci : ci option;  (** [Some] exactly when a stopping rule was given *)
}

val run_campaign :
  ?jobs:int ->
  ?config:Recovery.config ->
  ?plan:Snapshot.plan ->
  ?stopping:stopping ->
  ?tel:Turnpike_telemetry.sink ->
  ?sink_for:(int -> Turnpike_telemetry.sink) ->
  golden:Interp.state ->
  compiled:Turnpike_compiler.Pass_pipeline.t ->
  Fault.t list ->
  campaign
(** Without [stopping], [Parallel.map_list run_one faults |> reduce]:
    every fault replays the interpreter independently on the domain pool
    ([?jobs] overrides the pool width, default the global [--jobs]
    setting). With [stopping], run batches of [stopping.batch] faults
    (each fanned out on the pool) until the Wilson interval's half-width
    reaches [stopping.half_width] with at least [stopping.min_faults]
    consumed, or the list is exhausted. Either way the result is
    identical at any [?jobs]; [plan] forwards to {!run_one}.

    [sink_for i] supplies the forensic sink for the fault at absolute
    index [i] in [faults] (see {!run_one}). Under a stopping rule [tel]
    receives one ["wilson_trajectory"] counter per consumed batch (args:
    batch index, consumed faults, running SDC / recovered counts, CI
    bounds and half-width), emitted by the sequential driver after the
    deterministic fold — so long campaigns are observable in flight and
    the trajectory is byte-identical at any job count.
    @raise Invalid_argument on a non-positive [batch] or [half_width]. *)
