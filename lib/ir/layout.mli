(** Address-space layout shared by the compiler, the interpreter and the
    timing model. All addresses are byte addresses; memory is word
    (8-byte) granular. *)

val word : int
(** Word size in bytes (8). *)

val data_base : int
(** Base of the workload data segment. *)

val spill_base : int
(** Base of the register-allocator spill area (stack stand-in). *)

val ckpt_base : int
(** Base of the checkpoint storage region. Each architectural register owns
    {!colors} consecutive word slots (one per hardware color). *)

val colors : int
(** Number of hardware colors per register (paper §4.3.2: a 4-color pool). *)

val ckpt_slot : reg:int -> color:int -> int
(** [ckpt_slot ~reg ~color] is the checkpoint address of [reg] in [color].
    Turnstile (no coloring) always uses color 0.
    @raise Invalid_argument if [color] is outside [0, colors). *)

val spill_slot : int -> int
(** [spill_slot i] is the address of the [i]-th spill slot. *)

val is_ckpt_addr : int -> bool
