(** Gated store buffer (GSB), paper §2.1.

    Under verification, an entry allocated by a committed store is
    quarantined until its region is verified error-free; entries then drain
    to L1 one per cycle. In baseline mode entries carry a release time from
    the start. The entries sit in fixed-size arrays, so the operations the
    timing models run every cycle or store ({!alloc}, {!contains_addr},
    {!assign_releases}, and {!release_up_to} when nothing is due) allocate
    nothing. *)

type t

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val occupancy : t -> int
val is_full : t -> bool

val sample : t -> unit
(** Record the current occupancy for the mean-occupancy statistic. *)

val mean_occupancy : t -> float

val alloc : t -> addr:int -> region:int -> is_ckpt:bool -> release_at:int option -> unit
(** Allocate an entry. [release_at = None] quarantines it until its region
    is verified. @raise Invalid_argument when full (callers must wait). *)

val contains_addr : t -> int -> bool
(** CAM probe used by the in-order fast-release constraint. *)

val assign_releases : t -> region:int -> start:int -> int
(** Give the quarantined entries of a verified region consecutive drain
    cycles from [start]; returns the next free drain cycle. *)

type released = {
  addr : int;
  is_ckpt : bool;
  region : int;  (** dynamic region the entry belonged to *)
  at : int;  (** the drain cycle the entry was assigned *)
}
(** What {!release_up_to} reports per drained entry — enough to stamp a
    timeline release event with its true drain cycle and region. *)

val release_up_to : t -> int -> released list
(** Remove and return the entries whose release time has passed, oldest
    first. *)

val earliest_release : t -> int option
(** Earliest assigned release time, if any entry has one. Kept current by
    every operation, so it costs O(1). *)

val all_unreleasable : t -> current_region:int -> bool
(** True when the buffer is non-empty and every entry belongs to the
    still-open region — the deadlock the SB-aware partitioner must
    prevent. *)

val force_release_oldest : t -> (int * bool) option
(** Escape hatch for non-strict simulation of mis-partitioned code. *)
