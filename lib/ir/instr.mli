(** RISC-like three-address instructions.

    The instruction set is deliberately small: just enough to express the
    workloads, register-allocator spill code, Turnstile/Turnpike checkpoint
    stores ({!constructor:Ckpt}) and region boundaries
    ({!constructor:Boundary}). *)

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
[@@deriving show, eq, ord]

type cmp = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show, eq, ord]

type operand = Reg of Reg.t | Imm of int [@@deriving show, eq, ord]

(** Memory-operation provenance, used by the paper's store-breakdown
    accounting (Fig 23). *)
type mem_kind =
  | App_mem  (** application loads/stores *)
  | Spill_mem  (** register-allocator spill traffic *)
  | Ckpt_mem  (** checkpoint storage (recovery code reads it) *)
[@@deriving show, eq, ord]

type t =
  | Binop of binop * Reg.t * Reg.t * operand  (** [rd = ra op o] *)
  | Cmp of cmp * Reg.t * Reg.t * operand  (** [rd = (ra cmp o) ? 1 : 0] *)
  | Mov of Reg.t * operand  (** [rd = o] *)
  | Load of Reg.t * Reg.t * int * mem_kind  (** [rd = mem\[rb + off\]] *)
  | Store of Reg.t * Reg.t * int * mem_kind  (** [mem\[rb + off\] = rs] *)
  | Ckpt of Reg.t
      (** Checkpoint store of a live-out register to its checkpoint slot;
          the slot's color is resolved by the microarchitecture. *)
  | Boundary of int  (** Region boundary marker (static region id). *)
  | Nop
[@@deriving show, eq, ord]

val defs : t -> Reg.t list
(** Registers written. Writes to {!Reg.zero} are discarded. *)

val uses : t -> Reg.t list
(** Registers read. {!Reg.zero} never appears (it is the constant 0). *)

val iter_defs : (Reg.t -> unit) -> t -> unit
(** Allocation-free {!defs}: applies the callback to each written register
    in the same order [defs] lists them. *)

val iter_uses : (Reg.t -> unit) -> t -> unit
(** Allocation-free {!uses}, in the same order [uses] lists them. *)

val reads : t -> Reg.t -> bool
(** [reads i r] is [List.mem r (uses i)], without allocating. *)

val writes : t -> Reg.t -> bool
(** [writes i r] is [List.mem r (defs i)], without allocating. *)

val is_store : t -> bool
val is_ckpt : t -> bool
val is_boundary : t -> bool

val is_sb_write : t -> bool
(** Instructions that occupy a store-buffer entry at commit: regular stores
    and checkpoint stores alike (paper §4.3). *)

val is_pure : t -> bool
(** No memory or region side effect; safe to reorder and rematerialize. *)

val eval_binop : binop -> int -> int -> int
(** Arithmetic semantics. Division/remainder by zero yield 0 so that fault
    injection can never crash the interpreter. *)

val eval_cmp : cmp -> int -> int -> int

val to_string : t -> string
val binop_to_string : binop -> string
val cmp_to_string : cmp -> string
val rename : (Reg.t -> Reg.t) -> t -> t
(** [rename f i] applies [f] to every register of [i] (defs and uses). *)
