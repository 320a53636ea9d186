(** Snapshot plans for fault campaigns.

    A plan holds one fault-free {e pilot} run of a compiled program under
    a recovery configuration ({!Recovery.capture_pilot}): a snapshot of
    the executor every {!every} steps, each carrying that config and
    program, and the pilot's final outcome. Memory pages are shared, not
    copied ({!Turnpike_ir.Mem.fork}). Each fault of a campaign then
    {!fork}s from the snapshot nearest its strike site, producing the
    verdict of a from-scratch {!Recovery.run} at O(suffix) cost.

    Forks only read a plan, so one plan is safely shared by every domain
    of a parallel campaign; the one cell a plan writes after it is
    recorded, {!pilot_matches}'s cache, is atomic. *)

type plan = private {
  pilot : Recovery.pilot;
  checked : (Turnpike_ir.Interp.state * bool) option Atomic.t;
      (** {!pilot_matches}'s cache *)
}

val every : int
(** The pilot's snapshot spacing in steps: 256. A fork replays at most
    this many steps from its snapshot to its strike. After a recovery it
    converges at its own strike site when it can (see
    {!Recovery.resume}); when that check fails, its next check is the
    snapshot after the strike, at most this many steps on. *)

val record : ?config:Recovery.config -> Turnpike_compiler.Pass_pipeline.t -> plan
(** Run the fault-free pilot and capture a snapshot every {!every} steps.
    @raise Recovery.Out_of_fuel when the pilot itself exhausts its fuel —
    no plan exists for a program the configuration cannot run. *)

val pilot_outcome : plan -> Recovery.outcome
(** The fault-free run's outcome (also the campaign's golden-comparable
    reference for steps). *)

val pilot_matches : plan -> golden:Turnpike_ir.Interp.state -> bool
(** Whether the pilot's final memory reads as [golden]'s over the data
    segment ({!Turnpike_ir.Layout.data_base} up to
    {!Turnpike_ir.Layout.spill_base}), the output {!Verifier} judges.
    The plan caches the answer for the last golden asked about (compared
    by physical equality), so a campaign compares once; safe to call from
    any domain. *)

val snapshot_count : plan -> int

val nearest : plan -> step:int -> Recovery.snapshot
(** Latest snapshot at or before [step] (the step-0 snapshot exists for
    every plan, so this is total for [step >= 0]). *)

val fork : ?tel:Turnpike_telemetry.sink -> plan -> Fault.t -> Recovery.outcome
(** Replay one fault from the nearest snapshot, under the config and
    program the plan was recorded with. Byte-identical to
    [Recovery.run ~faults:[fault]] under them in [recoveries],
    [detections] and every part of [state] a verdict reads (see
    {!Recovery.resume}) — and in the forensic events [tel] receives (see
    {!Recovery.run}); raises the same exceptions. *)
