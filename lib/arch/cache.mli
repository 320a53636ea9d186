(** Set-associative, write-back, write-allocate cache with true-LRU
    replacement. This module tracks only hit/miss state; latency accounting
    lives in {!Mem_hierarchy}. *)

type t

val create : name:string -> size_bytes:int -> assoc:int -> line_bytes:int -> t
(** @raise Invalid_argument unless sizes are powers of two and consistent. *)

val access : t -> write:bool -> int -> [ `Hit | `Miss ]
(** Probe (and on miss, fill) the line holding a byte address. *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val hit_rate : t -> float
