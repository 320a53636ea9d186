(** Static (compile-time) counters emitted by the pass pipeline; they feed
    the paper's store-breakdown (Fig 23), checkpoint-ratio (Fig 4) and
    code-size (Fig 26) analyses. *)

type t = {
  mutable regions : int;
  mutable ckpts_inserted : int;  (** eager checkpoints before any removal *)
  mutable ckpts_pruned : int;  (** removed by optimal checkpoint pruning *)
  mutable ckpts_licm_moved : int;  (** sunk out of a loop by LICM *)
  mutable ckpts_licm_eliminated : int;  (** deduplicated after LICM sinking *)
  mutable livm_merged_ivs : int;  (** induction variables merged by LIVM *)
  mutable livm_ckpts_eliminated : int;
  mutable spill_stores : int;  (** static spill stores emitted by regalloc *)
  mutable spill_loads : int;
  mutable spilled_vregs : int;
  mutable sched_moved : int;  (** checkpoints delayed by instruction scheduling *)
  mutable base_code_size : int;  (** instructions before resilience transforms *)
  mutable code_size : int;  (** instructions after the full pipeline *)
}

val create : unit -> t

val copy : t -> t
(** Snapshot the current counter values (the pass profiler diffs a copy
    taken before a pass against the live record after it). *)

val diff : before:t -> after:t -> (string * int) list
(** The non-zero counter deltas between two snapshots — what one compile
    pass contributed, attached to its profiling span. *)

val code_size_increase : t -> float
(** Percent code-size increase over the baseline (paper Fig 26). *)

val to_json : t -> string
(** One-line JSON object mirroring {!Turnpike_arch.Sim_stats.to_json}:
    every counter plus the derived [code_size_increase_percent]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
