(** Region-transactional executor: the functional (architectural) model of
    Turnstile/Turnpike error containment and recovery.

    Quarantined stores are undo-logged per dynamic region and commit when
    the region verifies; WAR-free regular stores (CLQ decision) and colored
    checkpoint stores release immediately; a fault flips register bits
    mid-run and is detected by the sensors within the verification window —
    or immediately by register parity when a tainted register is about to
    address memory (paper §5). Detection rolls back every unverified
    region, restores the restart region's live-in registers from verified
    checkpoint storage (running pruning's reconstruction expressions) and
    resumes at the region head.

    Recovery correctness is an architectural property; the module is
    deliberately independent of the cycle-level timing model. *)

open Turnpike_ir
module Clq = Turnpike_arch.Clq
module Pass_pipeline = Turnpike_compiler.Pass_pipeline

type config = {
  verify_delay : int;  (** steps from region end to verification (WCDL stand-in) *)
  coloring : bool;
  clq : Clq.design option;
  unsafe_ckpt_release : bool;
      (** paper Fig 16: release checkpoints without coloring — intentionally
          unsound; exists to demonstrate why coloring is necessary *)
  honor_static_claims : bool;
      (** trust the pipeline's static release claims
          ({!Turnpike_compiler.Claims.t}): claimed WAR-free stores and
          direct-release checkpoints skip the quarantine — sound exactly
          when the claims are; the differential oracle feeds it wrong
          claims to cross-check the static checker dynamically *)
  fuel : int;
}

val default_config : config
(** Turnpike hardware: coloring on, 2-entry compact CLQ. *)

val turnstile_config : config
(** No fast release at all: everything quarantines. *)

type detection = Sensor | Parity

type outcome = {
  state : Interp.state;
  recoveries : int;
  detections : detection list;
  fast_released_stores : int;
  colored_ckpts : int;
  quarantined_writes : int;
}

exception Recovery_failed of string

exception Out_of_fuel of { recoveries : int; steps : int }
(** The fuel budget ran out: [recoveries] recoveries had been performed and
    the interpreter had executed [steps] steps — enough for campaign triage
    to tell recovery livelock from a genuinely wedged program. *)

val run :
  ?faults:Fault.t list ->
  ?config:config ->
  ?tel:Turnpike_telemetry.sink ->
  Pass_pipeline.t ->
  outcome
(** Execute a compiled program, optionally injecting [faults] (sorted by
    strike step; several faults may be in flight, each detected within
    the verification window). At exit all
    remaining verifications are drained: quarantined regions commit and
    buffered fallback checkpoints reach checkpoint storage, so the final
    memory is fully committed state.

    [tel] (default {!Turnpike_telemetry.null}) receives the forensic
    lifecycle of every injected fault, category ["forensics"]: a
    [strike] instant when the flip lands (args: [reg], [xor_mask],
    [at_step]), a [taint_use] instant at the first instruction consuming
    a tainted register, a [detect] instant when the sensor or parity path
    fires (args: [kind], [latency] in fault-free positions), a [rollback]
    instant plus a [reexec] complete-span when recovery restarts a region
    (args: [restart_region], [restart_block], [discarded_regions],
    [undone_writes], [rewind]), and a [reconverge] instant at the first
    step after recovery with no fault in flight, no pending detection and
    no live taint — from which the run's remainder is fully determined.
    Every event carries [ts] = dynamic step plus [pos] (fault-free
    position), [region] (open static region id, -1 when none) and the
    static ([func], [block], [index]) site. All stamps are deterministic
    functions of executor state: the stream is byte-identical across
    [--jobs] counts and across snapshot-forked vs from-scratch replays.
    @raise Recovery_failed when recovery cannot proceed (by design only
    reachable through [unsafe_ckpt_release] or broken compilation), or
    when one run needs more than 8 recoveries.
    @raise Out_of_fuel when the fuel budget is exhausted. *)

(** {2 Snapshot / fork support}

    A {e pilot} is a fault-free run that takes a snapshot every [every]
    steps. A snapshot is the executor itself, frozen at the top of its
    step loop: interpreter registers and pc, region, quarantine, CLQ and
    coloring bookkeeping, and the config and compiled program it runs.
    Its memory is a {!Turnpike_ir.Mem.fork} of the pilot's: it shares the
    pilot's pages, and the pilot copies a page on its next write to it.
    A faulted run forked from the snapshot nearest (at or before) its
    strike site produces exactly the outcome of a from-scratch {!run}
    with the same fault and config: the pre-strike prefix of the faulted
    run is identical to the pilot, and once the fault's effects have
    fully healed the fork recognises that its state has re-converged
    with a later pilot snapshot and adopts the pilot's suffix instead of
    re-executing it. *)

type snapshot

val snapshot_step : snapshot -> int
(** The fault-free step index (position) the snapshot was captured at. *)

type pilot = private {
  snapshots : snapshot array;  (** ascending step order; [snapshots.(0)] is step 0 *)
  outcome : outcome;  (** the fault-free run's final, drained outcome *)
}

val capture_pilot : ?config:config -> every:int -> Pass_pipeline.t -> pilot
(** Run the program fault-free under [config], taking a snapshot every
    [every] steps, starting at step 0. The outcome's final memory is
    published as a fork that owns no page, so any domain may fork it.
    @raise Invalid_argument when [every <= 0].
    @raise Out_of_fuel when the fault-free run itself runs out of fuel. *)

val resume :
  ?tel:Turnpike_telemetry.sink ->
  pilot ->
  from:snapshot ->
  faults:Fault.t list ->
  outcome
(** Fork a run with [faults] (none, one or several, sorted as {!run}
    sorts them) from [from], one of [pilot]'s snapshots that precedes
    every strike ([snapshot_step from <= f.at_step] for each fault [f]).
    The fork runs the snapshot's config and compiled program. Its
    outcome's [state], [recoveries] and [detections] are byte-identical
    to those of {!run} with the same faults, config and program. On a
    convergence early exit the release/ckpt counters reflect only the
    work the fork actually executed, and the state is the pilot's final
    state with its own copy of the registers and a fork of the memory,
    so writing to it reaches neither the pilot nor another outcome. The
    fork shares the snapshot's memory pages and copies only those it
    writes. [tel] receives the same forensic lifecycle events,
    byte-identical to the from-scratch run's (see {!run}): no event
    precedes the strike, and the reconvergence instant is a pure state
    predicate, so adopting the pilot suffix early loses nothing. *)
