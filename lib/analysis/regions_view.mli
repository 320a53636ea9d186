(** Independent reconstruction of the region partition from [Boundary]
    markers alone.

    The compiler's own [Regions] module is deliberately not reused: the
    analysis layer re-derives region membership from the instruction stream
    so that a bug in the partitioner cannot hide from the checker. The
    structural invariants verified here are the ones the recovery runtime
    relies on: a region is a single-entry subgraph headed by the block that
    carries its [Boundary] marker, and the head dominates every member.

    Membership is kept on the CFG's dense view: blocks are named by their
    RPO number ({!Turnpike_ir.Cfg.rpo_label}) and regions by their index
    in {!t.regions}. *)

open Turnpike_ir

type region = {
  id : int;  (** static region id from the [Boundary] marker *)
  head : string;
  head_block : Block.t;
  head_rpo : int;  (** RPO number of the head; -1 when it is unreachable *)
  members : int array;
      (** RPO numbers of the reachable members: the head first (when
          reachable), then the others in reverse postorder *)
}

type t = {
  regions : region array;  (** sorted by id *)
  region_of : int array;
      (** by RPO number: the index in [regions] of the block's region,
          -1 for a block outside every region *)
  has_regions : bool;  (** false when the function carries no boundaries *)
  diags : Diag.t list;  (** structural violations found during reconstruction *)
}

val check_name : string
(** ["regions"] — the registry name under which [diags] are reported. *)

val compute : Cfg.t -> (unit -> Dominance.t) -> Func.t -> t
(** [compute cfg dom func] reconstructs the partition. [dom] is forced
    only when the function actually carries boundary markers (the
    head-dominates-member proof) — pre-partition pipeline rounds build the
    view on boundary-free code and never pay for dominance. *)
