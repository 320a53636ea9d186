(** Bimodal (2-bit saturating counter) branch predictor with a
    direct-mapped pattern table, sized for small in-order cores. The
    timing model charges the fetch-redirect penalty only on
    mispredictions. *)

type t

val create : ?entries:int -> unit -> t
(** [entries] (default 512) must be a positive power of two.
    Counters start weakly taken so loops begin predicted correctly. *)

val predict : t -> pc:int -> bool

val update : t -> pc:int -> taken:bool -> bool
(** Record the outcome and train; returns whether the prediction was
    correct. *)

val lookups : t -> int
val mispredicts : t -> int
