(** Functions: a named collection of basic blocks with a designated entry
    and a layout order (used for fallthrough-aware passes and code-size
    accounting). *)

type t = {
  name : string;
  entry : string;
  blocks : (string, Block.t) Hashtbl.t;
  mutable order : string list;
}

val create : name:string -> entry:string -> Block.t list -> t
(** Build a function from blocks in layout order.
    @raise Invalid_argument on duplicate labels or missing entry. *)

val block : t -> string -> Block.t
(** @raise Invalid_argument on unknown label. *)

val block_opt : t -> string -> Block.t option
val labels : t -> string list
val blocks : t -> Block.t list
val entry_block : t -> Block.t
val num_instrs : t -> int
val iter_blocks : (Block.t -> unit) -> t -> unit
val fold_instrs : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a

val add_block : t -> Block.t -> after:string -> unit
(** Insert a new block immediately after [after] in layout order.
    @raise Invalid_argument on duplicate label. *)

val validate : t -> string list
(** Structural well-formedness check; returns a list of problems (empty
    when the function is well formed). *)

val copy : t -> t
(** Deep copy (blocks and bodies are fresh). *)

val max_reg : t -> Reg.t
(** Largest register id mentioned anywhere in the function. *)

val to_string : t -> string
