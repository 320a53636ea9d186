(** Table formatting and aggregation helpers shared by the experiment
    drivers and the bench harness. *)

val geomean : float list -> float
val arith_mean : float list -> float

val fmt_overhead : float -> string
(** Normalized execution time with 3 decimals, as in the paper's plots. *)

val fmt_pct : float -> string

(** {1 Tables}

    A table is declared once, as a list of typed columns over its row
    type. The same list renders the printed table ({!print_table}) and the
    CSV file ({!Csv_export.table}). *)

type 'row column
(** One column over rows of type ['row]: a text title, width and cell,
    and a CSV header and cell. *)

val str : ?csv:string -> string -> int -> ('row -> string) -> 'row column
(** [str title width cell]: the same string in both renderings. [csv] is
    the CSV header (default [title]); [width] pads the text cell only. *)

val int : ?csv:string -> string -> int -> ('row -> int) -> 'row column
(** An integer cell, in decimal in both renderings. *)

val float :
  ?csv:string ->
  ?fmt:(float -> string) ->
  string ->
  int ->
  ('row -> float) ->
  'row column
(** A float cell: text through [fmt] (default {!fmt_overhead}), CSV as
    [%.6f]. *)

val keyed :
  'row column list ->
  ('row -> ('k * float) list) ->
  ('k -> ('row -> float) -> 'row column) ->
  'row list ->
  'row column list
(** [keyed lead cells col rows] is [lead] followed by [col k] for every
    key [k] that any row's [cells] carries, in first-appearance order; a
    row without [k] reads nan there. Without rows it is [[]], [lead]
    included, so a keyed CSV with no rows writes no file. *)

val print_table : 'row column list -> 'row list -> unit
(** The titles padded to their widths and joined by [" | "], a dashed
    rule, then one line per row. *)

val csv_lines : 'row column list -> 'row list -> string list list
(** The CSV rendering: the headers, then one list of fields per row. *)

val section : string -> unit
val subsection : string -> unit
