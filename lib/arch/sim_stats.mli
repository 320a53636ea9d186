(** Per-simulation counters emitted by the timing model. *)

type t = {
  mutable cycles : int;
  mutable instructions : int;  (** executed instructions (boundaries excluded) *)
  mutable loads : int;
  mutable stores : int;  (** regular stores (application + spill) *)
  mutable ckpts : int;
  mutable boundaries : int;  (** dynamic regions entered *)
  mutable war_free_released : int;
      (** regular stores released without verification (CLQ) *)
  mutable colored_released : int;
      (** checkpoint stores released without verification (coloring) *)
  mutable quarantined : int;  (** store-buffer writes that waited for verification *)
  mutable ckpt_quarantined : int;  (** the checkpoint subset of [quarantined] *)
  mutable sb_full_stall_cycles : int;
  mutable data_stall_cycles : int;
  mutable rbb_stall_cycles : int;
  mutable partition_violations : int;
      (** force-released entries of an over-full single region *)
  mutable clq_overflows : int;
  mutable clq_mean_populated : float;
  mutable clq_max_populated : int;
  mutable coloring_fallbacks : int;
  mutable sb_mean_occupancy : float;
  mutable l1_hit_rate : float;
  mutable sb_forwards : int;  (** loads served by store-to-load forwarding *)
  mutable branch_mispredicts : int;
  mutable complete : bool;  (** trace ran to program completion *)
}

val create : unit -> t

val ipc : t -> float
val sb_writes : t -> int
val fast_released : t -> int

val war_free_ratio : t -> float
(** WAR-free released stores / all store-buffer writes (paper Fig 15). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> string
(** One flat JSON object of all counters (for external tooling). *)
