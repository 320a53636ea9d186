(** Static release claims the pipeline publishes for the checker to audit
    and the recovery model to (optionally) honor.

    [bypass_stores] are stores the compiler proves WAR-free: no load in
    the function can read the address they overwrite, so releasing them
    before verification can never expose a rolled-back region to its own
    future writes (paper §4.3.1; the CLQ proves the same property
    dynamically). [direct_ckpts] are checkpoint stores that may release
    without waiting for verification (the safe version of the paper's
    Fig 16): the register has a single, loop-free checkpoint site and
    every region restart that would restore the register happens strictly
    after that site has executed. *)

open Turnpike_ir

type t = {
  bypass_stores : (string * int) list;  (** (block label, body index) *)
  direct_ckpts : (string * int) list;  (** (block label, body index) *)
}

val empty : t

val compute : Cfg.t -> Liveness.t -> Func.t -> t
(** Conservative claim inference on the final (post-scheduling) function,
    given its CFG and liveness. Results are sorted and deterministic. *)
