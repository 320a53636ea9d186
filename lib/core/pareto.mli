(** Pareto dominance and the non-dominated subset over minimization
    objectives.

    All objectives minimize (the explorer's runtime overhead, area,
    energy and SDC rate all do); a point dominates another when it is no
    worse everywhere and strictly better somewhere. Equal objective
    vectors never dominate each other, so duplicated points all survive
    to the frontier — and every function preserves input order, keeping
    frontier output deterministic at any pool width. *)

val dominates : float array -> float array -> bool
(** [dominates a b]: [a.(i) <= b.(i)] for every objective and
    [a.(i) < b.(i)] for at least one. Comparisons involving NaN are
    false, so a NaN objective can neither dominate nor be dominated on
    that axis.
    @raise Invalid_argument when the vectors differ in length. *)

val frontier : objectives:('a -> float array) -> 'a list -> 'a list
(** The non-dominated subset, in input order. *)
