(** Eager checkpointing (paper §2.2).

    Inserts a checkpoint store right after the last definition of every
    register that leaves its region live — turning register verification
    into memory verification. The entry region additionally checkpoints the
    program's input registers. *)

open Turnpike_ir

val insert : ?entry_live:Reg.t list -> cfg:Cfg.t -> Func.t -> Regions.t * int
(** Insert checkpoints in place and report how many were inserted, with
    the region structure they were placed against (checkpoints do not
    change it). Requires boundary markers and the function's current CFG —
    the one {!Regions.partition} returns. *)

val strip : Func.t -> Func.t
(** Remove all checkpoint instructions (in place). *)

val count : Func.t -> int
(** Static checkpoint-store count. *)
