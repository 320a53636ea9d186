(** Control-flow graph view of a {!Func.t}: predecessor lists and a
    reverse-postorder numbering of the reachable blocks. *)

type t

val build : Func.t -> t
(** Snapshot of the function's CFG. Rebuild after structural edits. *)

val predecessors : t -> string -> string list
val successors : t -> string -> string list

val reverse_postorder : t -> string list
(** Reachable labels in reverse postorder (entry first). *)

val postorder : t -> string list

val rpo_number : t -> string -> int option
(** RPO index, or [None] for unreachable blocks. *)

val is_reachable : t -> string -> bool
val reachable_labels : t -> string list

val is_back_edge_candidate : t -> src:string -> dst:string -> bool
(** RPO-based retreat-edge test ([dst] not after [src]); combined with a
    dominance check this identifies loop back edges. *)

(** {1 Dense view}

    The reachable blocks numbered [0 .. num_reachable - 1] in reverse
    postorder (the entry is 0), so the dataflow analyses can keep their
    per-block state in arrays instead of label-keyed tables. *)

val num_reachable : t -> int

val rpo_label : t -> int -> string
(** Label of the block with the given RPO number. *)

val rpo_succs : t -> int -> int array
(** RPO numbers of a block's successors, in {!successors} order. *)

val rpo_preds : t -> int -> int array
(** RPO numbers of a block's reachable predecessors, in {!predecessors}
    order (a label the layout order lists twice appears once). *)
