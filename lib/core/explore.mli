(** Cross-layer design-space exploration with Pareto frontiers.

    The explorer walks a {!Design_point.spec} grid — core model,
    store-buffer depth, CLQ size, color-pool width, sensor deployment and
    compiler rung — and scores every point once, at the full-scale
    budget, on four objectives (runtime overhead, area, dynamic
    resilience energy, campaign SDC rate), all to be minimized. The
    frontier is the Pareto-optimal set of those scores, and each frontier
    point is re-validated by re-running its evaluation and comparing
    objectives.

    Everything is deterministic at any [--jobs] setting: grid enumeration
    order is fixed ({!Design_point.grid}), parallel fan-out is
    index-ordered ({!Turnpike_parallel}), and campaigns use seeded fault
    lists with sequential stopping
    ({!Turnpike_resilience.Verifier.run_campaign_ci}). *)

module Suite = Turnpike_workloads.Suite

(** {1 Objectives} *)

type objectives = {
  overhead : float;
      (** geomean over the benchmark set of cycles / unprotected-baseline
          cycles on the same core at the same SB depth *)
  area_um2 : float;
      (** resilience hardware area: SB CAM + CLQ RAM + color maps +
          sensor network share of the paper's 1mm{^ 2} die *)
  energy_pj_per_kinstr : float;
      (** mean dynamic energy of the resilience hardware per 1000
          instructions (CAM quarantine traffic vs. RAM fast-release
          lookups) *)
  sdc_rate : float;
      (** pooled silent-data-corruption rate over this point's fault
          campaigns ([0.0] when the budget runs no campaign) *)
  faults : int;  (** faults consumed by the campaigns behind [sdc_rate] *)
}

val objective_vector : objectives -> float array
(** The minimization vector [\[overhead; area; energy; sdc_rate\]] that
    the frontier is computed over ([faults] is bookkeeping, not an
    objective). *)

(** {1 Evaluation budget} *)

type budget = {
  label : string;
  scale : int;  (** workload scale of the timing traces *)
  fuel : int;  (** interpreter step budget of the timing traces *)
  max_faults : int;
      (** fault supply per campaign; [0] skips campaigns entirely *)
  ci_half_width : float;  (** Wilson-interval stopping target *)
}

val full_budget : Run.params -> budget
(** The full-scale budget of an operating point, labelled ["full"]: its
    scale and fuel, and CI-stopped campaigns of up to 64 faults per
    benchmark at ±0.05. *)

val budgets_for : Run.params -> budget list
(** [\[full_budget params\]]. The list shape is kept for the perf
    harness ([bench/perf]), which reads every budget's [scale]. *)

(** {1 Scoring} *)

val default_benches : unit -> Suite.entry list
(** The explorer's benchmark subset: libquan\@2006 (streaming stores),
    mcf\@2006 (pointer chasing) and radix (LIVM/LICM target) — one
    representative per behaviour class, so a grid sweep stays tractable. *)

val score :
  benches:Suite.entry list ->
  budget:budget ->
  seed:int ->
  Design_point.t ->
  objectives
(** Evaluate one design point under one budget: compile each benchmark
    under the point's rung at the budget's scale and fuel (cached),
    simulate on the point's {!Design_point.machine_model} and its
    unprotected baseline, and run a CI-stopped fault campaign per
    benchmark under the point's {!Design_point.recovery_config}. It runs
    the same code as the batched evaluation in {!run}, on a batch of one
    point, so re-scoring a point reproduces its objectives bit-for-bit. *)

(** {1 The explorer} *)

type point_result = {
  point : Design_point.t;
  objectives : objectives;
  on_frontier : bool;  (** member of the Pareto frontier *)
  forensics : Turnpike_resilience.Forensics.summary option;
      (** attribution rollup of the point's (shared) campaign — populated
          only when {!run} was given [~forensics:true]; kept outside
          {!objectives} so frontier re-validation still compares scalar
          objectives exactly *)
}

type report = {
  grid_size : int;
  results : point_result list;  (** every grid point, in grid order *)
  frontier : point_result list;  (** Pareto-optimal set, in grid order *)
  evals_per_budget : (string * int) list;
      (** [\[(budget.label, grid_size)\]]: every point is evaluated once.
          The list shape is kept for the perf harness. *)
  validated : bool;
      (** every frontier point's re-evaluation reproduced its recorded
          objectives exactly *)
  benches : string list;  (** qualified benchmark names scored over *)
  seed : int;
}

val run :
  ?benches:Suite.entry list ->
  ?budget:budget ->
  ?seed:int ->
  ?params:Run.params ->
  ?forensics:bool ->
  spec:Design_point.spec ->
  unit ->
  report
(** Explore [spec]'s grid: score every point once under [budget]
    (default {!full_budget}[ params]), take the Pareto frontier of those
    scores and re-validate it. Scoring runs two fan-outs on the domain
    pool, each over distinct work only. The first has one task per
    distinct simulation: a point's core and its baseline are shared with
    every point that lowers to the same model on the same binary (on the
    default grid, 132 simulations serve 64 points × 3 benchmarks × 2
    models). The second has one task per (campaign key, benchmark): a
    campaign is shared by every point that differs only in axes it cannot
    observe (the core model, the color-pool width), and runs whole inside
    its worker. Re-validation re-scores each frontier point alone through
    {!score}, one pool task per point. The whole run is deterministic at
    any job count. With [forensics] (default false) every campaign
    records per-fault lifecycles and each {!point_result} carries the
    attribution rollup; sinks never influence outcomes, so scores, the
    frontier and validation are unchanged. *)
