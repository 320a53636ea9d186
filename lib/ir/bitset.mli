(** Dense integer bitsets for register dataflow.

    Register ids are small dense integers ({!Reg.t}), so liveness and
    the fixpoint-heavy checks (definite assignment, checkpoint coverage) run
    their transfer functions on flat int-array bitsets instead of tree
    sets: set algebra becomes a short word loop with no allocation, which
    matters when the per-pass engine re-runs a check after most passes.

    Sets are mutable and sized at creation for a fixed id universe
    [0..max_id]; operations over two sets require them to come from the
    same universe (same creation width). *)

type t
(** A mutable set of integers in a fixed universe. *)

val create : max_id:int -> t
(** Empty set able to hold ids [0..max_id]. *)

val mem : t -> int -> bool
(** False for ids outside the universe (checks probe with ids taken from
    claims, which adversarial IR can point anywhere). *)

val add : t -> int -> unit
(** The id must be within the universe the set was created for. *)

val remove : t -> int -> unit
(** Same universe requirement as {!add}. *)

val copy : t -> t

val equal : t -> t -> bool
(** Same elements (same-universe sets only). *)

val union_into : dst:t -> t -> unit
(** [dst := dst ∪ src]. *)

val inter_into : dst:t -> t -> unit
(** [dst := dst ∩ src]. *)

val transfer : gen:t -> kill:t -> t -> t
(** [(src \ kill) ∪ gen], freshly allocated — the classic dataflow block
    transfer. *)

val transfer_into : dst:t -> gen:t -> kill:t -> t -> bool
(** [dst := (src \ kill) ∪ gen] in place — {!transfer} without the
    allocation, for fixpoints that keep one set per block — reporting
    whether [dst] changed. *)

val iter : (int -> unit) -> t -> unit
(** Applies the callback to every member, in increasing order. *)

