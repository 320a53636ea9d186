(** Architectural fault model (paper §5).

    A soft error strikes one register at a given dynamic step and flips
    some of its bits; acoustic sensors detect the strike within the
    worst-case detection latency. SB/RBB/CLQ/color maps, caches and the
    address generation unit are hardened; a per-register parity bit turns
    any addressing use of a struck register into immediate detection. *)

open Turnpike_ir

type t = {
  at_step : int;  (** dynamic step at which the strike lands *)
  reg : Reg.t;  (** struck register *)
  xor_mask : int;  (** bit flips applied to its value *)
}
[@@deriving show, eq]

val create : at_step:int -> reg:Reg.t -> xor_mask:int -> t
(** @raise Invalid_argument on a negative step, empty mask or the zero
    register. *)

val single_bit : at_step:int -> reg:Reg.t -> bit:int -> t

val mix : int -> int -> int
(** A deterministic, non-negative hash of two integers. {!Injector}
    draws a campaign's sites and bits from it, and {!Recovery} samples
    each strike's sensor detection latency from it. *)

val to_json : t -> string
(** One fixed-shape JSON object:
    [{"at_step":N,"reg":"rK","xor_mask":M}]. *)
