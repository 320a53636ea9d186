(** Region boundary buffer (RBB), paper §2.1 and Fig 2.

    One entry per in-flight (unverified) dynamic region: when it verifies
    and which static region it instantiates (the recovery-PC anchor).
    Regions verify strictly in order. *)

type region = {
  seq : int;  (** dynamic region sequence number *)
  static_id : int;  (** static region id of the boundary that opened it *)
  mutable verify_at : int option;  (** set when the region closes *)
}

type t

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val current : t -> region option
(** The open (still executing) region, if any. *)

val current_seq : t -> int
(** Sequence number of the open region, or [-1]. *)

val unverified_count : t -> int
(** Open region plus closed-but-unverified regions. *)

val is_full : t -> bool

val open_region : t -> static_id:int -> region
(** @raise Invalid_argument if a region is already open. *)

val close_region : t -> end_cycle:int -> wcdl:int -> region
(** Close the open region: it will verify at [end_cycle + wcdl].
    @raise Invalid_argument if no region is open. *)

val next_verify_time : t -> int option
(** Verification time of the oldest closed region. *)

val pop_verified : t -> cycle:int -> region list
(** Remove (in order) every closed region verified by [cycle]. Allocates
    nothing when none is. *)
