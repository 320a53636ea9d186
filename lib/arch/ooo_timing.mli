(** Trace-driven model of an out-of-order core, for the paper's motivating
    comparison (§1, §3): Turnstile's verification is cheap on OoO machines
    (40-entry store buffer, dynamic scheduling hides checkpoint hazards)
    while the same scheme devastates an in-order core. Dataflow-limited
    execution under a reorder window, 2 ALUs, one load and one store port,
    and branch-misprediction fetch stalls. *)

type config = {
  rob_size : int;
  alus : int;
  sb_size : int;  (** 40 entries, as the paper attributes to OoO cores *)
  wcdl : int;
  verification : bool;  (** quarantine stores until region verification *)
  branch_penalty : int;
  mem : Mem_hierarchy.config;
}

val default_config : config
(** Unprotected OoO baseline: 64-entry window, 40-entry SB. *)

val turnstile_config : ?wcdl:int -> unit -> config
(** Turnstile on the OoO core: verification on. *)

val simulate : config -> Turnpike_ir.Trace.t -> Sim_stats.t
(** Replay a trace and return its counters. Under verification, a store
    that finds every store-buffer entry quarantined in its own (still
    open) region, which no wait can free, forces the oldest entry out and
    counts a [partition_violation], as {!Timing.simulate} does. *)
