(** Static ACE/AVF vulnerability estimate (paper §3, "vulnerability
    windows").

    A struck register matters only while it is ACE — architecturally
    required for correct execution (Mukherjee et al.'s ACE analysis,
    here approximated by liveness): the window opens at a definition and
    closes at the last use, and Turnpike shrinks the *consequence* of a
    hit inside the window by bounding how far a fault can propagate
    before detection (parity / acoustic-sensor WCDL) and rollback
    (region checkpoints). This module computes those windows purely
    statically from the IR — no simulation, no fault campaign — and
    distills them into ranked per-site / per-register / per-region
    tables structurally identical to the dynamic forensics tables
    ([Turnpike_resilience.Forensics]), so the two rankings can be
    compared key-for-key ({!Rank.agreement}).

    The estimate is an execution-frequency model, not a cycle-accurate
    one: each static position is weighted by [loop_weight]{^ depth}
    (loop trip counts are unknowable statically), ACE fractions come
    from {!Context.liveness}, and detection escape falls with region
    mass relative to the configured WCDL ({!Context.t.wcdl}). Coverage
    gaps ({!Recoverability.uncovered_live_ins}) are charged as
    unbounded exposure — which is what convicts the drop-ckpt mutant
    statically. *)

open Turnpike_ir

val name : string
(** ["vuln"] — the registry check name. *)

val loop_weight : float
(** Assumed iterations per loop-nesting level (static stand-in for trip
    count); a block at depth [d] weighs [loop_weight ** d]. *)

(** One ranked table row. [exposure] is the raw weighted ACE mass;
    [score] additionally folds in detection escape, coverage gaps and
    bypass hazards. Tables are sorted by score (descending), then
    exposure, then {!Rank.key_compare} — the same tie-break the dynamic
    forensics tables use. *)
type row = { key : string; exposure : float; score : float }

type table = row list

(** The vulnerability window of one definition: from the def at
    [(block, index)] to the last use of [reg], measured in
    loop-weighted positions. *)
type window = {
  w_block : string;
  w_index : int;  (** body index of the defining instruction *)
  w_reg : Reg.t;
  w_region : int;  (** region of the def site; [-1] outside regions *)
  w_length : float;  (** weighted positions the value stays live *)
  w_bypass : float;
      (** weighted positions at which the live value feeds a claimed
          verification-bypassable store (a wrong value escapes the SB
          quarantine there) *)
}

type t = {
  windows : window list;  (** every def's window, program order *)
  by_site : table;  (** key ["block:index"], terminator at index [n] *)
  by_register : table;  (** key [Reg.to_string] *)
  by_region : table;  (** key [string_of_int region_id] *)
  gaps : (int * string * Reg.t) list;
      (** uncovered region live-ins (region id, head, register) — each
          charged as unbounded exposure of its region and register *)
  total_mass : float;  (** loop-weighted positions in the function *)
  predicted_avf : float;
      (** mass-weighted mean of the region scores: the function's scalar
          vulnerability estimate *)
  wcdl : int;  (** detection latency the estimate was computed under *)
}

val empty : t
(** The all-zero result (returned for functions without regions). *)

val compute : Context.t -> t
(** Run the analysis. Uses the context's memoized {!Context.liveness} /
    {!Context.regions} / {!Context.dominance} (plus a private loop-depth
    pass); detection latency comes from {!Context.t.wcdl} (default 10
    when absent). Deterministic: depends only on the context. *)

val rank : table -> table
(** Sort rows by (score desc, exposure desc, {!Rank.key_compare}).
    [compute] returns already-ranked tables; exposed for tests and for
    re-ranking merged tables. *)

val check : Context.t -> Diag.t list
(** The registry entry point: one [Warn] per coverage gap (these are
    also [Recoverability] errors, so a clean lint stays clean — the
    warning adds the vulnerability framing). *)

val table_to_json : table -> string
val to_json : t -> string
(** Stable JSON rendering (tables in rank order). *)
