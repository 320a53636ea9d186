(** Backward live-register analysis. *)

type t

val compute : Cfg.t -> t
(** Liveness over the blocks the CFG was built from ({!Cfg.rpo_block}):
    the function's own records, so in-place body edits made since the
    build are seen. *)

val live_in : t -> string -> Reg.Set.t
(** Registers live at block entry. Empty for unknown labels. *)

val live_out : t -> string -> Reg.Set.t
(** Registers live at block exit (before the terminator's targets). *)

val mem_live_in : t -> int -> Reg.t -> bool
(** [mem_live_in t k r]: is [r] live into the block with RPO number [k]
    ({!Cfg.rpo_label})? The same answer as {!live_in}, without building
    the set. *)

val mem_live_out : t -> int -> Reg.t -> bool
(** {!mem_live_in} at block exit. *)

val iter_live_in : t -> int -> (Reg.t -> unit) -> unit
(** [iter_live_in t k f] applies [f] to every register of {!live_in} of
    the block with RPO number [k], in increasing order, without building
    the set. *)

val iter_live_out : t -> int -> (Reg.t -> unit) -> unit
(** {!iter_live_in} at block exit. *)

val live_before_each : t -> Block.t -> Reg.Set.t array
(** [live_before_each t b] has length [Block.num_instrs b + 1]; slot [i]
    holds the registers live immediately before instruction [i], and the
    final slot the registers live before the terminator. *)

