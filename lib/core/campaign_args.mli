(** One argument spec for every campaign-driving entry point.

    [turnpike-cli inject], [turnpike-cli explore] and
    [bench/main.exe resilience] all take the same five knobs — seed, CI
    half-width, confidence, batch size and job count — and used to each
    re-declare flag names, defaults and docs. This module is the single
    source of truth: the {!t} record carries the values, {!consume} is
    the hand-rolled-parser building block the bench harness uses, and the
    {!doc_seed}-style strings plus {!default} feed the Cmdliner term
    definitions in the CLI, so help text and defaults cannot drift. *)

type t = {
  seed : int;  (** campaign seed (fault draws and batch order) *)
  faults : int option;
      (** campaign size / maximum fault supply; [None] = caller default *)
  ci : float option;
      (** target CI half-width on the SDC rate; [None] = fixed count *)
  confidence : float;  (** confidence level of the stopping interval *)
  batch : int;  (** faults per sequential batch of the stopping loop *)
  jobs : int option;  (** worker domains; [None] = leave pool untouched *)
}

val default : t
(** Seed 7, confidence 0.95, batch 32 — the defaults every entry point
    shares ([faults], [ci] and [jobs] unset). *)

val consume : t -> string list -> (t * string list) option
(** [consume t args] recognizes one leading
    [--seed N | --faults N | --ci W | --confidence C | --batch B |
    --jobs N] pair and returns the updated record plus the remaining
    arguments; [None] when the head is not one of these flags (the
    caller's own parser proceeds). Malformed values, and values
    {!validate} rejects, raise [Failure] with the flag name. *)

val validate : t -> (unit, string) result
(** Check the ranges the stopping rule needs: [--ci] positive,
    [--confidence] strictly between 0 and 1, [--batch] positive. The
    error message names the offending flag. {!consume} applies it to
    every flag it parses; the Cmdliner front ends call it before any
    work. *)

val usage : string
(** One-line usage fragment listing the shared flags. *)

val apply_jobs : t -> unit
(** Install [t.jobs] as the pool width via
    {!Turnpike_parallel.set_default_jobs}; no-op when unset. *)

val stopping : ?default:Turnpike_resilience.Verifier.stopping -> t -> Turnpike_resilience.Verifier.stopping option
(** The sequential-stopping rule these arguments select: [Some] exactly
    when [--ci] was given, with confidence and batch applied over
    [default] ({!Turnpike_resilience.Verifier.default_stopping} if
    omitted). *)

(** {1 Doc strings shared with the Cmdliner front end} *)

val doc_seed : string
val doc_faults : string
val doc_ci : string
val doc_confidence : string
val doc_batch : string
val doc_jobs : string
val doc_forensics : string
