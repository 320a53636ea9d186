(** Fault-campaign construction: deterministic fault sets spread across a
    program's dynamic execution, targeting freshly written registers so the
    campaign stresses recovery rather than flipping dead bits. *)

open Turnpike_ir

val campaign : ?seed:int -> count:int -> Trace.t -> Fault.t list
(** Build up to [count] {e distinct} single-bit faults from a reference
    trace of the program (empty when the trace writes no registers). Bits
    are drawn over the full 63-bit register value width, and strike sites
    are clamped inside the trace. Faults are deduplicated by
    (step, register, bit) in seeded draw order, topping up until [count]
    distinct faults exist or the site/bit space of the trace is exhausted
    — so the list is shorter than [count] only when [count] exceeds 63 ×
    {!strike_sites}, i.e. for very small programs. Deterministic in
    [seed]. *)

val strike_sites : Trace.t -> int
(** Distinct (step, register) strike sites of a trace: each register
    write is struck one step after it, clamped into the trace. Write
    steps are distinct, so this is the number of writes, less one when
    the final two steps write the same register. *)
