(** Functional (architectural) interpreter.

    It defines the reference semantics used by correctness checks, produces
    dynamic traces for the cycle-level timing model, and exposes a
    single-step API that the resilience engine drives for fault injection
    and region-restart recovery. *)

type program
(** A decoded program: block labels resolved to array indices, each
    terminator's targets and fall-through flags resolved, and each static
    instruction's trace event and source list built once. Immutable once
    built, so one decoded program is safely shared by every domain that
    runs it. *)

val decode : Prog.t -> program
(** Decode a program for {!step}. The result is a snapshot: later edits
    to the program's blocks do not reach it.
    @raise Invalid_argument when a terminator names a block that does not
    exist (the wellformedness check rejects such programs). *)

type state = {
  mutable regs : int array;
      (** dense register file indexed by register id; ids past its end
          read 0 and a write there grows it *)
  mem : Mem.t;
      (** word memory, paged per {!Layout} segment; a {!Mem.fork} of it
          shares its pages and copies each one on its first write *)
  mutable block : int;
      (** pc: the current block's index in layout order *)
  mutable index : int;
      (** pc: the instruction index within the block; [= Array.length
          body] denotes the terminator *)
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

val get_reg : state -> Reg.t -> int
(** {!Reg.zero} always reads 0; unset registers read 0. *)

val set_reg : state -> Reg.t -> int -> unit
(** Writes to {!Reg.zero} are discarded. *)

val get_mem : state -> int -> int
(** Uninitialized memory reads 0. *)

val set_mem : state -> int -> int -> unit

val init : Prog.t -> state
(** Fresh state with the program's memory image and input registers, at
    the entry block. The register file holds the registers the code
    names ({!Func.max_reg}), so a snapshot copies no more than those. *)

val label : program -> state -> string
(** The label of the pc's block (for forensic and static-claim sites). *)

val block_index : program -> string -> int
(** A block's index in layout order, for setting the pc to a block head.
    @raise Invalid_argument on an unknown label. *)

val instr : program -> state -> Instr.t option
(** The instruction at the pc; [None] at a terminator. *)

type hooks = {
  on_ckpt : state -> Reg.t -> unit;
      (** Semantics of [Ckpt r]. The default writes the register to its
          color-0 checkpoint slot (Turnstile behaviour); the resilience
          engine substitutes color-aware behaviour. *)
  on_boundary : state -> int -> unit;
  on_event : Trace.event -> unit;
      (** Every event but a load's or a store's. *)
  on_access : Trace.event -> int -> unit;
      (** A load's or a store's static event, whose address is a
          placeholder, and the address it accessed: a hook that keeps the
          event builds it, one that needs only the address allocates
          nothing. *)
  write_mem : state -> int -> int -> unit;
      (** Semantics of a store's memory write. The default writes through;
          the resilience engine substitutes an undo-logged (quarantined)
          write. *)
}

val no_hooks : hooks

val exec_instr : hooks -> state -> Instr.t -> unit
(** Execute one instruction's data semantics (no PC update). *)

val step : hooks -> program -> state -> unit
(** Execute the instruction (or terminator) at the current PC and advance.
    No-op once [halted]. [write_mem], [on_ckpt] and [on_boundary] run
    before the instruction's event; a load's event follows its register
    write. A control transfer to the layout successor costs no fetch
    redirect: a fall-through unconditional jump emits no event (boundary
    block splits are PC markers, not code), and a branch's [taken] flag
    means "fetch redirected". Every event is shared by all dynamic
    instances of its instruction; a load or a store goes to [on_access]
    with its address, so a step allocates nothing itself. *)

val run : ?fuel:int -> ?hooks:hooks -> Prog.t -> state
(** Decode and run to completion.
    @raise Out_of_fuel after [fuel] steps (default 1e7). *)

val trace_run : ?fuel:int -> Prog.t -> Trace.t * state
(** Decode and run (up to [fuel] steps, default 1e6) collecting the
    dynamic trace.
    The trace is marked incomplete instead of raising when fuel runs out —
    mirroring the paper's fixed-length simulation windows. *)
