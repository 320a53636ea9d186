(** Gated store buffer (GSB), paper §2.1.

    Under verification, an entry allocated by a committed store is
    quarantined until its region is verified error-free; entries then drain
    to L1 one per cycle. In baseline mode entries carry a release time from
    the start. The entries sit in fixed-size arrays and are released where
    they sit, so every operation but {!force_release_oldest} allocates
    nothing. *)

type t

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val occupancy : t -> int
val is_full : t -> bool

val sample : t -> unit
(** Record the current occupancy for the mean-occupancy statistic. *)

val mean_occupancy : t -> float

val alloc : t -> addr:int -> region:int -> is_ckpt:bool -> release_at:int -> unit
(** Allocate an entry that drains at cycle [release_at]; [max_int]
    quarantines it until its region is verified.
    @raise Invalid_argument when full (callers must wait). *)

val contains_addr : t -> int -> bool
(** CAM probe used by the in-order fast-release constraint. *)

val assign_releases : t -> region:int -> start:int -> int
(** Give the quarantined entries of a verified region consecutive drain
    cycles from [start]; returns the next free drain cycle. *)

val release_due :
  t -> cycle:int -> (addr:int -> region:int -> is_ckpt:bool -> at:int -> 'a -> unit) -> 'a -> unit
(** [release_due t ~cycle f x] removes every entry whose release cycle is
    at most [cycle], oldest first, calling [f ~addr ~region ~is_ckpt ~at x]
    on each: [region] is the dynamic region it belonged to and [at] its
    drain cycle, enough to stamp a timeline release event. Returns at once
    when no entry is due. [f] must not touch [t]. *)

val earliest_release : t -> int
(** Earliest assigned release cycle, or [max_int] when no entry has one.
    Kept current by every operation, so it costs O(1). *)

val all_unreleasable : t -> current_region:int -> bool
(** True when the buffer is non-empty and every entry belongs to the
    still-open region — the deadlock the SB-aware partitioner must
    prevent. *)

val force_release_oldest : t -> (int * bool) option
(** Escape hatch for non-strict simulation of mis-partitioned code. *)
