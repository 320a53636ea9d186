(** Region boundary buffer (RBB), paper §2.1 and Fig 2.

    One entry per in-flight (unverified) dynamic region, holding the
    cycle at which it verifies. Regions are numbered in the order they
    open and verify strictly in that order, so the buffer is a ring of
    verify cycles indexed by sequence number: no operation allocates
    but the rare doubling of the ring when more regions are unverified
    than it holds. *)

type t

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val current_seq : t -> int
(** Sequence number of the open (still executing) region, or [-1]. *)

val unverified_count : t -> int
(** Open region plus closed-but-unverified regions. *)

val is_full : t -> bool
(** At least [size] regions are unverified. *)

val open_region : t -> int
(** Open the next region and return its sequence number (0 for the
    first). @raise Invalid_argument if a region is already open. *)

val close_region : t -> end_cycle:int -> wcdl:int -> int
(** Close the open region, which will verify at [end_cycle + wcdl], and
    return its sequence number. @raise Invalid_argument if no region is
    open. *)

val next_verify_time : t -> int
(** Verification cycle of the oldest closed region, or [max_int] when
    every unverified region is still open. *)

val verify_oldest : t -> int
(** Remove the oldest closed region, which the caller has found verified
    ({!next_verify_time} has passed), and return its sequence number.
    @raise Invalid_argument if no region is closed. *)
