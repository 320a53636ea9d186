(** IR facets — the currency of the incremental registry.

    Each registry check declares the set of facets it {e reads}; each
    pipeline pass declares the set it {e may dirty}. Between passes, the
    registry re-runs exactly the checks whose read set intersects the
    facets dirtied since they last ran. Skipping is output-preserving: a
    check whose inputs are untouched would reproduce its previous
    diagnostics verbatim, and those are already deduplicated by the
    provenance filter ({!Registry.fresh}). *)

(** One aspect of the pipeline state. *)
type t =
  | Cfg_shape  (** block set, terminators, layout order *)
  | Instrs  (** block bodies: which instructions exist, their opcodes and
                operands (subsumes {!Instr_order}: a pass that dirties
                [Instrs] need not also declare [Instr_order]) *)
  | Instr_order
      (** intra-block instruction order only, under the scheduler's
          contract: a dependence-preserving permutation of each block
          body. Block-level dataflow summaries (liveness gen/kill, the
          boundary segment structure, per-block store counts) are
          invariant under such permutations, so {!Context.advance} keeps
          the liveness cache warm — but checks that report instruction
          positions must still re-run, so every [Instrs] reader reads
          this too. The contract itself is audited each compile by the
          [sched-deps] pair check. *)
  | Boundaries  (** region boundary markers (partitioning output) *)
  | Reg_classes  (** virtual/physical status, [nregs], entry-defined set *)
  | Recovery_exprs  (** pruned-checkpoint reconstruction expressions *)
  | Claims  (** WAR-bypass and direct-release claims *)
  | Machine_params  (** SB size, colors, RBB depth, CLQ entries *)

val compare : t -> t -> int
(** Total order following declaration order. *)

val equal : t -> t -> bool
(** Facet equality. *)

(** Facet sets, ordered per {!compare}. *)
module Set : Set.S with type elt = t

val all : Set.t
(** The universe — what a fresh (never-checked) pipeline state dirties. *)

val to_string : t -> string
(** Stable kebab-case name, used by [lint --explain] and the
    architecture docs. *)

val set_to_string : Set.t -> string
(** Comma-joined {!to_string} of the elements in {!Set} order. *)
