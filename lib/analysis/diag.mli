(** Diagnostics emitted by the static checks.

    A diagnostic carries the check that produced it, a severity from the
    {!severity} lattice, and its location: function, optional block label,
    optional instruction index, and the compiler pass it is attributed to
    (when the registry runs between passes). *)

type severity = Info | Warn | Error [@@deriving show, eq, ord]
(** Ordered lattice: [Info < Warn < Error]. *)

(** One finding. *)
type t = {
  check : string;  (** registry name of the emitting check *)
  severity : severity;
  func : string;
  block : string option;
  instr : int option;  (** body index within [block] *)
  pass : string option;  (** pass provenance; [None] for final-only runs *)
  message : string;
}
[@@deriving show, eq]

val make :
  check:string ->
  severity:severity ->
  func:string ->
  ?block:string ->
  ?instr:int ->
  ?pass:string ->
  string ->
  t
(** [make ~check ~severity ~func ?block ?instr ?pass message] builds one
    diagnostic. *)

val error_count : t list -> int
(** Number of [Error]-severity diagnostics in the list. *)

val sort : t list -> t list
(** Sort in a deterministic order (function, block, instruction, check,
    severity with the most severe first, message, pass) and drop exact
    duplicates. *)

val with_pass : string option -> t -> t
(** Replace the pass provenance field. *)

val key : t -> string
(** Identity of the finding ignoring pass provenance — used to attribute a
    diagnostic to the first pass after which it appears. *)

val to_string : t -> string
(** One-line rendering: [severity check func[:block[:i]] (pass): message]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val to_json : t -> string
(** One JSON object, keys in fixed order, deterministic bytes. *)
