(** Backward live-register analysis. *)

type t

val compute : Cfg.t -> Func.t -> t

val live_in : t -> string -> Reg.Set.t
(** Registers live at block entry. Empty for unknown labels. *)

val live_out : t -> string -> Reg.Set.t
(** Registers live at block exit (before the terminator's targets). *)

val live_before_each : t -> Block.t -> Reg.Set.t array
(** [live_before_each t b] has length [Block.num_instrs b + 1]; slot [i]
    holds the registers live immediately before instruction [i], and the
    final slot the registers live before the terminator. *)

