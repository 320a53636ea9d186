(** Committed load queue (CLQ), paper §4.3.1.

    Dynamically proves the absence of write-after-read dependence within a
    region so that regular stores can bypass verification ("fast release").
    Two designs: the {e ideal} CAM design records every committed load
    address of each un-verified region; the {e compact} design keeps one
    [min,max] address range per region within a small fixed number of
    entries, falling back to the Fig-13 enable/disable automaton on
    overflow. *)

type design = Ideal | Compact of int  (** number of range entries *)

type t

val create : design -> t
(** @raise Invalid_argument on a non-positive compact entry count. *)

val copy : t -> t
(** Deep copy: mutating either the original or the copy afterwards leaves
    the other untouched. Used by executor snapshotting. *)

val enabled : t -> bool
(** Fast-release state of the Fig-13 automaton. *)

val entries_in_use : t -> int

val record_load : t -> region:int -> int -> bool
(** Record a committed load address for its dynamic region. If a new region
    needs an entry and none is free, the automaton disables fast release and
    clears the queue; [true] is returned exactly when that overflow
    transition fired (so the timing model can stamp a timeline event at the
    cycle it happened). No-op returning [false] while disabled. *)

val war_free : t -> region:int -> int -> bool
(** [war_free t ~region addr]: may a store to [addr] from [region] bypass
    verification? False whenever fast release is disabled; conservative
    (range-based) for the compact design. *)

val on_region_verified : t -> region:int -> unit
(** Clear the entry populated by a now-verified region. *)

val maybe_enable : t -> unverified_regions:int -> unit
(** Re-enable fast release at a region boundary once at most the
    just-closed region is still unverified. *)

val sample : t -> unit
(** Record current entry usage (drives the paper's Fig 24 statistic). *)

val overflows : t -> int
val max_populated : t -> int
val mean_populated : t -> float
