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

val rpo_block : t -> int -> Block.t
(** The block record with the given RPO number: the function's own
    record, so its body reads as the function's does after an in-place
    edit. *)

val rpo_succs : t -> int -> int array
(** RPO numbers of a block's successors, in {!successors} order. *)

val rpo_preds : t -> int -> int array
(** RPO numbers of a block's reachable predecessors, in {!predecessors}
    order (a label the layout order lists twice appears once). *)

val rpo_pred_count : t -> int -> int
(** Length of the block's {!predecessors} list: unreachable predecessors
    and a label the layout order lists twice count too. *)

(** {1 Layout view} *)

val iter_layout : t -> (int -> Block.t -> unit) -> unit
(** [iter_layout t f] applies [f] to the RPO number (-1 when unreachable)
    and the record of every block the layout order lists, in layout
    order: [Func.iter_blocks] with {!rpo_number}, without a label
    lookup. A label listed twice is visited twice. *)

val clean_layout : t -> bool
(** The layout order names no label twice, leaves out no block of the
    function, and no listed block's terminator names a label the function
    lacks. (A label the order names that the function lacks, or an entry
    it lacks, makes {!build} raise.) *)
