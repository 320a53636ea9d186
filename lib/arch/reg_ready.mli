(** Register ready cycles of a timing model: when each register's latest
    value becomes available to a consumer. Lookups and updates allocate
    nothing (the table grows, rarely, to fit a larger register id). *)

type t

val create : unit -> t
(** Every register ready at cycle 0. *)

val get : t -> Turnpike_ir.Reg.t -> int
(** Ready cycle of a register: 0 until it is first {!set}, and always 0
    for the zero register. *)

val latest : t -> Turnpike_ir.Reg.t list -> int
(** The cycle by which every listed register is ready (0 for none): when
    an instruction's operands are all available. *)

val set : t -> Turnpike_ir.Reg.t -> int -> unit
(** Record a register's ready cycle; ignored for the zero register.
    Register ids are non-negative, as {!Turnpike_ir.Reg} builds them. *)
