(** First-class sweep axes and grid evaluation.

    Every figure driver in {!Experiments} and the design-space explorer
    ({!Explore}) walk some (benchmark × configuration) grid. This module
    makes the configuration dimension a value: an {!axis} names the knob,
    carries its candidate values and knows how to render one — so drivers
    become one {!grid} call instead of a bespoke loop, and the explorer
    composes six axes into a {!Design_point} grid declaratively.

    Evaluation delegates to {!Turnpike_parallel.grid}: the full cartesian product
    is submitted to the domain pool as one flat task list and results are
    regrouped in input order, so rows are identical at any [--jobs]. *)

type 'a axis = private { name : string; show : 'a -> string; values : 'a list }
(** A named sweep dimension. [show] renders a value for reports and CSV
    cells; [values] are swept in list order (which fixes row order and
    grid enumeration order everywhere downstream). *)

val axis : name:string -> show:('a -> string) -> 'a list -> 'a axis
(** @raise Invalid_argument on an empty value list. *)

val ints : name:string -> int list -> int axis
(** An integer axis rendered with [string_of_int]. *)

val names : 'a axis -> string list
(** [show] applied to every value, in sweep order. *)

val cross : 'a axis -> 'b axis -> ('a * 'b) axis
(** Cartesian product axis, [a]-major; named ["a×b"] and rendered
    ["va,vb"]. *)

val grid :
  ?jobs:int ->
  items:'i list ->
  axis:'c axis ->
  ('i -> 'c -> 'r) ->
  ('i * ('c * 'r) list) list
(** [grid ~items ~axis f] evaluates [f item value] over the full
    (item × axis value) product on the domain pool and regroups results
    per item, both in input order — the shared engine under every figure
    sweep. *)

val rows :
  items:'i list ->
  axis:'c axis ->
  row:('i -> ('c * 'r) list -> 'row) ->
  ('i -> 'c -> 'r) ->
  'row list
(** {!grid} followed by a per-item row constructor: the usual shape of a
    figure driver ([row] receives the item and its results along the
    axis, in axis order). *)
