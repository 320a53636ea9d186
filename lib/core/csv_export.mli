(** CSV rendering of experiment rows for downstream plotting.
    [bench/main.exe --csv DIR] writes eight files: [fig4.csv],
    [fig14_15.csv], [fig18.csv], [fig19.csv], [fig20.csv], [fig21.csv],
    [fig23.csv] and [fig26.csv], each from its figure's column list in
    {!Experiments}. *)

val table : path:string -> 'row Report.column list -> 'row list -> unit
(** Write the CSV rendering of [cols] over [rows] to [path]: the CSV
    headers, then one line per row. Without columns it writes no file,
    so a keyed table ({!Report.keyed}) with no rows leaves nothing; a
    fixed-column table with no rows writes its header. *)

val explore_grid : path:string -> Explore.report -> unit
(** Every grid point of an exploration, in grid enumeration order: axis
    columns ({!Design_point.columns}), the point's objectives and its
    frontier membership. *)

val explore_pareto : path:string -> Explore.report -> unit
(** The Pareto-optimal subset only, same columns and order. *)

val forensics_columns :
  key:string -> Turnpike_resilience.Forensics.row Report.column list
(** One forensic attribution table: the key (text title [key], CSV header
    [key]), the outcome counts and the vulnerability. [turnpike-cli
    report] prints it and {!forensics} writes it. *)

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
    ranked key with one score column per scheme ({!Report.keyed}): a key
    a scheme never ranks (regions differ across rungs) renders as "nan"
    rather than losing the file. No file on empty input. *)

val vuln : dir:string -> Lint.vuln_report -> unit
(** The full static artifact set under [dir]: [vuln_by_site.csv],
    [vuln_by_register.csv], [vuln_by_region.csv]. Deterministic at any
    [--jobs] count. *)
