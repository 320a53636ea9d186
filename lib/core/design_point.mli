(** One point of the cross-layer design space.

    A design point fixes every knob the explorer sweeps: the core model
    (in-order or out-of-order), the store-buffer depth, the compact-CLQ
    entry count, the checkpoint color-pool width, the acoustic-sensor
    deployment and the compiler rung. {!machine_model} lowers a point to
    a configured {!Turnpike_arch.Machine_model.t}, so scoring treats both
    core backends uniformly; {!recovery_config} lowers it to the
    functional executor configuration a fault campaign runs under. *)

module Machine_model = Turnpike_arch.Machine_model
module Recovery = Turnpike_resilience.Recovery

type core = In_order | Out_of_order

type t = {
  core : core;
  sb_entries : int;
  clq_entries : int;  (** compact-CLQ range entries; [0] = no CLQ *)
  color_bits : int;  (** [2^bits] colors per register; [0] = no coloring *)
  sensors : int;  (** deployed acoustic sensors (sets the WCDL) *)
  rung : Scheme.t;  (** compiler rung (which optimizations are compiled in) *)
}

val id : t -> string
(** Stable slug, e.g. ["ooo/sb8/clq2/cb2/s300/turnpike"] — the point's
    identity in CSV rows, dedup keys and deterministic tie-breaks. *)

val clock_ghz : float
(** The paper's 2.5GHz operating point — the clock every sensor-derived
    WCDL is expressed against. *)

val wcdl : t -> int
(** Worst-case detection latency the sensor deployment achieves at the
    paper's 2.5GHz operating point. *)

val clq_design : t -> Turnpike_arch.Clq.design option

val machine_model : t -> Machine_model.t
(** The configured core this point runs on: verification on, with the
    point's SB/CLQ/coloring/WCDL. The out-of-order backend models
    verification through its reorder window and has no fast-release
    hardware, so CLQ and color knobs only affect its cost objectives. *)

val baseline_model : t -> Machine_model.t
(** The unprotected core of the same kind and SB depth — the
    normalization denominator for this point's runtime overhead. *)

val recovery_config : t -> Recovery.config
(** Functional-executor configuration for this point's fault campaigns:
    the WCDL stands in for [verify_delay], CLQ and coloring mirror the
    hardware knobs, and the fuel is {!Recovery.default_config}'s. *)

(** {1 Grid construction} *)

type spec = {
  cores : core list;
  sb_entries : int list;
  clq_entries : int list;
  color_bits : int list;
  sensors : int list;
  rungs : Scheme.t list;
}
(** Declarative description of a design grid: the candidate values of
    each dimension, swept in list order. *)

val default_spec : spec
(** The default 64-point exploration grid: {in-order, OoO} × SB {4, 8} ×
    CLQ {0, 2} × color bits {0, 2} × sensors {100, 300} × rung
    {turnstile, turnpike}. *)

val tiny_spec : spec
(** A 4-point smoke grid (both cores, both rungs, everything else
    pinned) for CI determinism checks. *)

val wide_spec : spec
(** A 486-point grid sweeping every axis harder (three SB depths, CLQ
    {0, 2, 4}, color bits {0, 1, 2}, three sensor deployments, three
    rungs). *)

val grid : spec -> t list
(** Cartesian product in axis order (cores-major, rungs-minor) — the
    canonical enumeration order every explorer artifact reports points
    in. *)

val columns : ('row -> t) -> 'row Report.column list
(** The axis columns of a design-point CSV row (core, sb, clq,
    color_bits, sensors, wcdl, rung), over any row that carries a point;
    the explore writers ({!Csv_export.explore_grid}) add the objectives. *)
