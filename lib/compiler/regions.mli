(** Store-buffer-aware region partitioning (paper §2.1, §4.3.1).

    Boundaries are pseudo-instructions at the start of region head blocks.
    Heads are the entry block, loop headers, join blocks, plus blocks
    promoted so that no region's path exceeds the store budget (SB/2, so
    one region's verification overlaps the next region's execution).
    Every non-head block has exactly one predecessor, making each region a
    single-entry tree of whole blocks. *)

open Turnpike_ir

type region = {
  id : int;
  head : string;  (** block whose first instruction is the boundary *)
  blocks : string list;  (** members in discovery order, head first *)
}

type t

val partition : ?budget:int -> Func.t -> Cfg.t
(** Strip any existing boundaries and re-partition the function in place
    (oversized blocks are physically split), returning the CFG of the
    result: boundary and checkpoint edits leave it valid, so checkpoint
    insertion can reuse it. [budget] is the max SB writes per region
    path, normally [sb_size / 2].
    @raise Invalid_argument when [budget < 1]. *)

val strip : Func.t -> Func.t
(** Remove all boundary markers (in place). *)

val of_func : Func.t -> t
(** Recover the region structure from boundary markers.
    @raise Invalid_argument if a non-head block has several predecessors
    (partitioning invariant violation). *)

val of_cfg : Cfg.t -> Func.t -> t
(** {!of_func} on a CFG the caller already holds for the function. *)

val region_of : t -> string -> int option
(** Region id of a block. *)

val region : t -> int -> region option
val num_regions : t -> int
val regions : t -> region list

val worst_region_path : Func.t -> t -> int
(** Maximum over all regions of the worst-path SB writes within one
    region's tree — must stay at or below the machine's SB size for
    deadlock freedom. *)
