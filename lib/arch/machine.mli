(** Machine configurations.

    Defaults model the paper's gem5 setup (§6.1): a 2-issue in-order core in
    the style of the ARM Cortex-A53, 4-entry store buffer, 2-entry compact
    CLQ, 10-cycle default WCDL. *)

type t = {
  name : string;
  issue_width : int;
  sb_size : int;
  rbb_size : int;  (** max in-flight (unverified) regions *)
  wcdl : int;  (** worst-case detection latency, cycles *)
  verification : bool;
      (** gated-SB verification on (Turnstile/Turnpike) or off (baseline) *)
  clq : Clq.design option;  (** fast release of WAR-free regular stores *)
  coloring : bool;  (** fast release of checkpoint stores *)
  colors : int;
      (** checkpoint color-pool size per register (default
          {!Turnpike_ir.Layout.colors}); only read when [coloring] is on *)
  branch_penalty : int;  (** taken-branch redirect bubble *)
  baseline_drain : int;  (** SB residency of a store without verification *)
  nregs : int;  (** architectural registers *)
  mem : Mem_hierarchy.config;
  strict_partitioning : bool;
      (** raise (instead of force-releasing) if a single region overflows
          the whole store buffer *)
}

val baseline : t
(** No resilience support: the normalization denominator of every figure. *)

val turnstile : ?wcdl:int -> ?sb_size:int -> unit -> t
(** The state of the art being improved upon: verification on, no CLQ, no
    coloring. *)

val turnpike : ?wcdl:int -> ?sb_size:int -> ?clq:Clq.design -> ?coloring:bool -> unit -> t
(** Turnpike hardware: verification with CLQ fast release and coloring. *)

val with_color_bits : t -> int -> t
(** Configure coloring from a bit width: [0] disables coloring entirely;
    [b > 0] enables it with a [2^b]-color pool per register — the
    color-bits design axis of the explorer.
    @raise Invalid_argument on a negative width. *)
