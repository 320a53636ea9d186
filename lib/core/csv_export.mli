(** CSV rendering of experiment rows for downstream plotting
    (`bench --csv DIR` writes one file per experiment). *)

val write : path:string -> header:string list -> string list list -> unit

val fig4 : path:string -> Experiments.fig4_row list -> unit
val fig14_15 : path:string -> Experiments.clq_design_row list -> unit
val fig18 : path:string -> Experiments.fig18_row list -> unit

val wcdl_sweep : path:string -> Experiments.wcdl_sweep_row list -> unit
(** Figs 19/20: one column per WCDL. *)

val ladder : path:string -> Experiments.fig21_row list -> unit
(** Fig 21 (and its WCDL-50 extension): one column per scheme. *)

val fig23 : path:string -> Experiments.fig23_row list -> unit
val fig26 : path:string -> Experiments.fig26_row list -> unit

val explore_grid : path:string -> Explore.report -> unit
(** Every grid point of an exploration, in grid enumeration order: axis
    columns ({!Design_point.csv_header}), the point's objectives and its
    frontier membership. *)

val explore_pareto : path:string -> Explore.report -> unit
(** The Pareto-optimal subset only, same columns and order. *)

val forensics_records :
  path:string -> Turnpike_resilience.Forensics.record list -> unit
(** One row per injected fault, in fault order: the draw, the outcome
    class and the lifecycle landmarks (site, region, detection kind and
    latency, rewind, sink drops). *)

val forensics_table :
  path:string -> Turnpike_resilience.Forensics.table -> unit
(** One ranked attribution table (by_site / by_register / by_region):
    class counts and the derated vulnerability per key, most dangerous
    first. *)

val forensics :
  dir:string ->
  Turnpike_resilience.Forensics.record list ->
  Turnpike_resilience.Forensics.summary ->
  unit
(** The full forensic artifact set under [dir]: [forensics_faults.csv]
    plus the three attribution tables. Byte-identical at any [--jobs]
    count and across fork vs scratch replay. *)

val vuln_table : path:string -> Lint.vuln_csv_row list -> unit
(** One static vulnerability table axis: a [benchmark,key] row per
    ranked key with one score column per scheme. Reuses the sweep
    writers' missing-column tolerance ([columns_of]): a key a scheme
    never ranks (regions differ across rungs) renders as "nan" rather
    than losing the file. No-op on empty input. *)

val vuln : dir:string -> Lint.vuln_report -> unit
(** The full static artifact set under [dir]: [vuln_by_site.csv],
    [vuln_by_register.csv], [vuln_by_region.csv]. Deterministic at any
    [--jobs] count. *)
