(** The full compile pipeline (paper Fig 7):

    [LIVM] → register allocation (optionally store-aware) → SB-aware
    partitioning + eager checkpointing (iterated to respect the store
    budget) → [checkpoint pruning] → [LICM sinking] → [checkpoint-aware
    scheduling] → recovery metadata.

    Bracketed phases are the Turnpike compiler optimizations; disabling
    them all yields exactly Turnstile's code; [resilient = false] yields
    the plain baseline binary every figure normalizes against.

    The pass sequence is declared once: {!pass_names}, the telemetry span
    names and the per-pass check provenance all derive from the same
    list. *)

open Turnpike_ir

type opts = {
  nregs : int;
  sb_size : int;  (** store-buffer size the partitioner targets *)
  resilient : bool;  (** false = no regions, no checkpoints *)
  unroll : int;
      (** counted-loop unroll factor (1 = off); applied to every scheme
          equally, like the -O3 unrolling it stands for *)
  store_aware_ra : bool;
  livm : bool;
  pruning : bool;
  licm : bool;
  sched : bool;
  sched_separation : int;
}

val baseline_opts : opts
val turnstile_opts : opts
val turnpike_opts : opts

(** How much static checking {!compile} performs: [Off] none, [Final] the
    whole-program registry once on the compiled result, [PerPass] the
    registry between every pass — each new diagnostic is attributed to the
    pass that introduced it, and pair checks (induction-variable merge
    audit, scheduling dependence preservation) compare before/after
    snapshots. [PerPass] is incremental: each pass declares the IR facets
    it may dirty and only the checks reading those facets re-run, with the
    analysis context's derived analyses carried across passes.
    [PerPassFull] forces the pre-incremental behavior — every check after
    every pass on a fresh context — and must produce byte-identical
    diagnostics (the redundant re-runs are deduplicated by provenance);
    it exists as the oracle the incremental engine is diffed against. *)
type check_level = Off | Final | PerPass | PerPassFull

type region_info = {
  id : int;
  head : string;  (** region head block (recovery-PC anchor) *)
  live_in : Reg.t list;  (** registers to restore when restarting here *)
}

type t = {
  prog : Prog.t;  (** physical-register program with markers in place *)
  opts : opts;
  regions : region_info array;
  recovery_exprs : (Reg.t, Recovery_expr.t) Hashtbl.t;
      (** reconstruction for pruned checkpoints *)
  claims : Claims.t;
      (** static release claims the checker audits (empty when
          non-resilient) *)
  diags : Turnpike_analysis.Diag.t list;
      (** diagnostics from the requested {!check_level} (empty for [Off]) *)
  check_log : (string * string list) list;
      (** per-pass-mode audit trail: for ["<input>"], then each executed
          pass (and ["<final>"] under [Final]), the checks that actually
          ran — what [lint --explain] prints. Empty for [Off]. *)
  stats : Static_stats.t;
}

val pass_names : opts -> string list
(** The exact pass sequence {!compile} runs for these options, in order —
    the profiling span per compile is one per name here. *)

val resolve_pipeline : opts:opts -> string -> (string list, string) result
(** Parse and validate a user [--pipeline] spec against [opts],
    returning the ordered pass list to hand to {!compile}'s [pipeline]
    argument. Three spec forms:

    - ["default"] — the canonical sequence {!pass_names} runs;
    - removals, e.g. ["-licm_sink,-scheduling"] — the canonical
      sequence minus the named passes;
    - an explicit ordered list, e.g. ["regalloc,partition_and_checkpoint,
      region_metadata"] — exactly those passes, in that order.

    The two last forms cannot be mixed. A spec is rejected (with a
    diagnostic naming the offending pass) when it names an unknown or
    duplicated pass, a pass disabled by [opts], drops a mandatory pass
    ([regalloc]; plus [partition_and_checkpoint] and [region_metadata]
    under a resilient scheme), or orders passes unsoundly: for passes
    [P] canonically before [Q], if [P] may dirty a facet [Q] reads
    (each pass declares the facet set it may dirty and the facet set
    its transformation reads), [Q] cannot run before [P]. *)

val compile :
  ?opts:opts ->
  ?tel:Turnpike_telemetry.sink ->
  ?check:check_level ->
  ?pipeline:string list ->
  Prog.t ->
  t
(** Compile a virtual-register program. The input program is not mutated.

    [tel] (default {!Turnpike_telemetry.null}) receives one wall-clock
    span per executed pass (category ["compiler"], names per
    {!pass_names}), each carrying the non-zero {!Static_stats} deltas that
    pass contributed as args; and, when [check] is not [Off], one span
    per registry round (category ["analysis"]), named and ordered as the
    {!field-check_log} entries, whose ["checks"] arg joins the names of
    the checks that ran with commas.

    [check] (default [Off]) runs the static-analysis registry on the
    pipeline state; results land in {!field-diags}.

    [pipeline] (default: the canonical enabled sequence) runs exactly
    the named passes in the given order. Pass a list vetted by
    {!resolve_pipeline}; an invalid list raises [Invalid_argument]
    with the same diagnostic [resolve_pipeline] would return. *)

val analysis_context : ?pass:string -> t -> Turnpike_analysis.Context.t
(** Analysis context over the compiled result (claims and recovery
    expressions included) — for running additional registry passes, e.g.
    with machine parameters via
    {!Turnpike_analysis.Context.with_machine}. *)

val region_info : t -> int -> region_info option
