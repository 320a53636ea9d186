(** The check registry.

    Whole-program checks run on any context (a final compile or the state
    between two passes); pair checks compare the function before and after
    one specific pass and only fire in per-pass mode.

    Each whole check declares the IR {!Facet}s it reads; the incremental
    API ({!inc_create}/{!run_whole_inc}) uses those declarations to re-run,
    between passes, only the checks whose inputs the pass could have
    touched. *)

open Turnpike_ir

(** A whole-program check. *)
type whole = {
  name : string;  (** stable identifier diagnostics carry *)
  doc : string;  (** one-line description (surfaces in docs/ARCHITECTURE.md) *)
  reads : Facet.Set.t;  (** facets the verdict depends on *)
  applies : Context.t -> bool;  (** cheap gate; [run] is skipped when false *)
  run : Context.t -> Diag.t list;  (** the check proper *)
}

(** A before/after pair check, bound to one pass. *)
type pair = {
  p_name : string;  (** stable identifier diagnostics carry *)
  p_doc : string;  (** one-line description *)
  pass : string;  (** declared pass name the check wraps *)
  p_run : before:Func.t -> Context.t -> Diag.t list;  (** the check proper *)
}

val whole_checks : whole list
(** Every registered whole-program check, in registration order. *)

val names : string list
(** All check names, whole and pair, in registration order. *)

val reads_of : string -> Facet.Set.t
(** Declared read set of a whole check (empty for unknown or pair
    names) — for the docs table and [lint --explain]. *)

val pair_passes : string list
(** Passes some pair check wants a pre-pass snapshot of. *)

val pair_names_for : string -> string list
(** Names of the pair checks registered for one pass. *)

val run_whole : Context.t -> Diag.t list
(** Run every applicable whole check, stamp the context's pass provenance,
    and return a deterministically sorted list. *)

val run_pair : pass:string -> before:Func.t -> Context.t -> Diag.t list
(** Run the pair checks registered for [pass] on a (before, after) snapshot
    pair. *)

type inc
(** Incremental-run state: per check, the facets dirtied since it last
    ran. Create one per pipeline execution. *)

val inc_create : unit -> inc
(** Fresh state in which every check is due (everything pending). *)

val run_whole_inc : inc -> dirty:Facet.Set.t -> Context.t -> Diag.t list * string list
(** Like {!run_whole}, but after charging [dirty] (the facets the pass
    just executed may have touched; {!Facet.all} for the initial state)
    to every check, runs only those whose pending facets intersect their
    declared reads, and marks them clean. Returns the sorted diagnostics
    plus the names of the checks that ran, in registration order. *)

val fresh : seen:(string, unit) Hashtbl.t -> Diag.t list -> Diag.t list
(** Filter out diagnostics whose {!Diag.key} is already in [seen] and
    record the new ones — the provenance mechanism: a diagnostic is
    attributed to the first pass after which it appears. *)
