(** Trace-driven, cycle-level model of a dual-issue in-order core with
    acoustic-sensor-based soft error verification.

    The model replays a {!Turnpike_ir.Trace.t} through a scoreboarded
    in-order pipeline, capturing the three mechanisms behind the paper's
    overheads: checkpoint data hazards, store-buffer/RBB structural hazards
    under WCDL-delayed release, and Turnpike's fast-release paths (CLQ for
    WAR-free regular stores, hardware coloring for checkpoint stores),
    decided by {!Fast_release}. *)

val simulate :
  ?tel:Turnpike_telemetry.sink -> Machine.t -> Turnpike_ir.Trace.t -> Sim_stats.t
(** Replay a trace on a machine configuration and return its counters.

    [tel] (default {!Turnpike_telemetry.null}) receives a cycle-stamped
    timeline of the run: region begin/end spans and occupancy counters
    (SB, RBB, CLQ) on track 0, [sb_full]/[rbb_full] stall spans on
    track 1, WCDL-long sensor verification windows on track 2,
    store-buffer quarantine/release instants on track 3 and CLQ
    bypass/overflow (plus colored checkpoint bypass) instants on track 4.
    Timestamps are simulated cycles, so the event stream is a pure
    function of (machine, trace) — identical at any pool width. *)
