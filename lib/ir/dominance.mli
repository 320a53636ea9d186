(** Dominator tree over the reachable blocks of a CFG
    (iterative Cooper-Harvey-Kennedy algorithm). *)

type t

val compute : Cfg.t -> t

val idom : t -> string -> string option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)

val dominates : t -> dom:string -> sub:string -> bool
(** Reflexive dominance. Unreachable [sub] is dominated by nothing. *)

val rpo_dominates : t -> dom:int -> sub:int -> bool
(** {!dominates} on RPO numbers ({!Cfg.rpo_number}) of reachable
    blocks. *)

val strictly_dominates : t -> dom:string -> sub:string -> bool

val dominators : t -> string -> string list
(** All dominators of a block, the block itself included. *)
