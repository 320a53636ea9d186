(** Checkpoint coverage at block entry (paper §4.1.3): for every
    reachable block, the registers whose checkpoint slot may be stale on
    some path into it.

    A forward may-dataflow on the CFG's dense view: a definition makes a
    register's slot stale, a checkpoint re-covers it, and a block is
    stale for a register if any predecessor leaves it stale. The entry
    starts all-covered: initialised registers have their base slot
    seeded by [Interp.init], and a register that was never defined reads
    as zero, which is what its unwritten slot restores. It reads only the
    CFG and the block bodies, so {!Context} memoizes it once per context
    and carries it across passes that leave the CFG and every block
    body, instruction order included, untouched. *)

open Turnpike_ir

type t

val compute : Cfg.t -> t

val uncovered : t -> int -> Reg.t -> bool
(** [uncovered t k r]: may [r]'s checkpoint slot be stale on entry to
    the block with RPO number [k] ({!Cfg.rpo_label})? False for a
    register the function never defines. *)
