(** A whole program: one function plus its initial memory image and initial
    register values (the workload inputs). *)

type t = {
  func : Func.t;
  mem_init : (int * int) list;  (** initial (address, value) pairs *)
  reg_init : (Reg.t * int) list;  (** input registers and their values *)
}

val create : ?mem_init:(int * int) list -> ?reg_init:(Reg.t * int) list -> Func.t -> t

val with_func : t -> Func.t -> t

val validate : t -> string list
(** Structural checks over function and images; empty when well formed. *)
