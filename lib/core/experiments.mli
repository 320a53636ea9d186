(** One driver per table/figure of the paper's evaluation (§6), plus one
    fault-injection SDC-freedom campaign ({!resilience}, at a fixed fault
    count or under a Wilson stopping rule) that exercises the recovery
    machinery end to end. Each driver returns structured rows; the bench
    harness renders them. Every driver takes its run configuration as
    [?params] (default {!Run.default_params}) and pins the knobs its
    figure mandates (e.g. the paper's 10-cycle WCDL) with
    [{ params with ... }].

    Each table is declared once, as a [*_columns] list next to its row
    type: the same list renders the printed table ({!Report.print_table})
    and, for the eight figures that write one, the CSV file
    ({!Csv_export.table}). The keyed tables (Figs 19–22) take the rows,
    whose keys become the columns. *)

module Suite = Turnpike_workloads.Suite
module Sensor = Turnpike_arch.Sensor
module Cost_model = Turnpike_arch.Cost_model
module Verifier = Turnpike_resilience.Verifier

val benchmarks : unit -> Suite.entry list

(** {1 Fig 4 — checkpoint ratio vs store-buffer size} *)

type fig4_row = { bench : string; ratio_sb40 : float; ratio_sb4 : float }

val fig4 : ?params:Run.params -> unit -> fig4_row list
val fig4_columns : fig4_row Report.column list

(** {1 Figs 14/15 — ideal vs compact CLQ design} *)

type clq_design_row = {
  bench : string;
  overhead_ideal : float;
  overhead_compact : float;
  war_free_ideal : float;
  war_free_compact : float;
}

val fig14_15 : ?params:Run.params -> unit -> clq_design_row list
val fig14_15_columns : clq_design_row Report.column list

(** {1 Fig 18 — detection latency vs sensor count} *)

type fig18_row = { sensors : int; dl_2_0ghz : int; dl_2_5ghz : int; dl_3_0ghz : int }

val fig18 : unit -> fig18_row list
val fig18_columns : fig18_row Report.column list

(** {1 Figs 19/20 — overhead across WCDL 10..50} *)

type wcdl_sweep_row = { bench : string; overheads : (int * float) list }

val wcdls : int list
(** The WCDLs both WCDL figures sweep over, in cycles. *)

val wcdl_sweep : ?params:Run.params -> Scheme.t -> wcdl_sweep_row list
val fig19 : ?params:Run.params -> unit -> wcdl_sweep_row list
val fig20 : ?params:Run.params -> unit -> wcdl_sweep_row list

val wcdl_sweep_columns : wcdl_sweep_row list -> wcdl_sweep_row Report.column list
(** One overhead column per WCDL ([DL10], CSV [wcdl10], ...). *)

(** {1 Fig 21 — the optimization-ablation ladder} *)

type fig21_row = { bench : string; by_scheme : (string * float) list }

val fig21 : ?params:Run.params -> unit -> fig21_row list

val fig21_wcdl : ?params:Run.params -> wcdl:int -> unit -> fig21_row list
(** Extension of Fig 21: the ablation ladder at an arbitrary WCDL. At
    long detection latencies the compiler rungs (fewer stores to verify)
    carry more of the win than at the paper's 10-cycle point. *)

val fig21_columns : fig21_row list -> fig21_row Report.column list
(** One overhead column per scheme, named as the scheme. *)

(** {1 Fig 22 — store-buffer size sensitivity} *)

type fig22_row = { bench : string; by_config : (string * float) list }

val fig22_configs : (string * Scheme.t * int) list
val fig22 : ?params:Run.params -> unit -> fig22_row list
val fig22_columns : fig22_row list -> fig22_row Report.column list

(** {1 Fig 23 — store breakdown} *)

type fig23_row = {
  bench : string;
  pruned : float;
  licm_eliminated : float;
  colored : float;
  war_free : float;
  ra_eliminated : float;
  ivm_eliminated : float;
  others : float;
}

val fig23 : ?params:Run.params -> unit -> fig23_row list
val fig23_columns : fig23_row Report.column list

(** {1 Figs 24/25 — CLQ occupancy and size sensitivity} *)

type fig24_row = { bench : string; mean_entries : float; max_entries : int }

val fig24 : ?params:Run.params -> unit -> fig24_row list
val fig24_columns : fig24_row Report.column list

type fig25_row = { bench : string; overhead_clq2 : float; overhead_clq4 : float }

val fig25 : ?params:Run.params -> unit -> fig25_row list
val fig25_columns : fig25_row Report.column list

(** {1 Fig 26 — region size and code-size increase} *)

type fig26_row = { bench : string; region_size : float; code_increase_pct : float }

val fig26 : ?params:Run.params -> unit -> fig26_row list
val fig26_columns : fig26_row Report.column list

(** {1 Table 1 — hardware cost} *)

val table1 : unit -> Cost_model.table1_row list
val table1_columns : Cost_model.table1_row Report.column list

(** {1 The motivating OoO/in-order comparison (paper §1, §3)} *)

type motivation_row = {
  bench : string;
  ooo_overhead : float;  (** Turnstile on the out-of-order core *)
  inorder_overhead : float;  (** Turnstile on the in-order core *)
}

val motivation : ?params:Run.params -> ?wcdl:int -> unit -> motivation_row list
(** The same Turnstile binary on both core models: the 40-entry SB and
    dynamic scheduling make verification cheap out of order (paper quotes
    ~8%), while the 4-entry in-order SB makes it expensive — the gap the
    whole paper exists to close. *)

val motivation_columns : motivation_row Report.column list

(** {1 Unrolling ablation (beyond the paper's figures)} *)

type unroll_row = {
  bench : string;
  by_factor : (int * float * float) list;
      (** (factor, turnstile overhead, turnpike overhead) *)
}

val unroll_factors : int list

val unroll_ablation : ?params:Run.params -> ?wcdl:int -> unit -> unroll_row list
(** Sweep the -O3-style unroll factor on both schemes (baseline re-unrolled
    identically): larger loop bodies lower checkpoint density and color-pool
    pressure — the region-size effect behind this repo's deviations from
    the paper's absolute numbers. Default WCDL 50, where the effect is
    largest. *)

val unroll_columns : unroll_row Report.column list

(** {1 Resilience-hardware energy (beyond the paper's figures)} *)

type energy_row = {
  bench : string;
  turnstile_pj_per_kinstr : float;
  turnpike_pj_per_kinstr : float;
}

val energy : ?params:Run.params -> unit -> energy_row list
(** Dynamic energy spent in the resilience structures (SB CAM quarantine
    traffic vs CLQ/color-map RAM lookups) per thousand instructions, using
    the Table 1 per-access model — quantifying the paper's
    power-efficiency motivation. *)

val energy_columns : energy_row Report.column list

(** {1 Fault-injection campaign (beyond the paper's figures)} *)

type resilience_row = { bench : string; campaign : Verifier.campaign }

val resilience :
  ?params:Run.params ->
  ?faults:int ->
  ?seed:int ->
  ?stopping:Verifier.stopping ->
  unit ->
  resilience_row list
(** Inject single-bit faults across each (completed) benchmark trace and
    verify every run recovers to the golden output — SDC-freedom. Each
    benchmark runs one fault-free pilot recording executor snapshots; every
    fault forks from the snapshot nearest its strike site (byte-identical
    to a from-scratch replay, at O(suffix) cost). [faults] (default 24)
    seeded faults per benchmark run through {!Verifier.run_campaign}: all
    of them without [stopping]; with it, batches until the Wilson
    confidence interval on the SDC rate reaches [stopping.half_width], so
    [faults] is the supply. Deterministic at any job count. *)

val resilience_columns : resilience_row Report.column list
(** The fixed-count table: per-benchmark outcome and detection counts. *)

val resilience_ci_columns : resilience_row Report.column list
(** The stopping-rule table: each campaign's interval and why it stopped.
    Every row must carry an interval (a campaign run with [stopping]). *)
