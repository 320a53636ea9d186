(* Registers are small integers. Ids below [virt_base] are architectural
   (physical) registers; ids at or above it are compiler temporaries that a
   register-allocation pass must eliminate before timing simulation.
   Register 0 is hard-wired to zero (RISC convention): it is never
   allocated, never checkpointed, and serves as the base register for
   absolute addressing of spill and checkpoint slots. *)

type t = int [@@deriving show, eq, ord]

let zero = 0

let virt_base = 1024

let phys i =
  if i < 0 || i >= virt_base then
    invalid_arg (Printf.sprintf "Reg.phys: %d out of range" i);
  i

let virt i =
  if i < 0 then invalid_arg "Reg.virt: negative id";
  virt_base + i

let is_virtual r = r >= virt_base

let is_physical r = r >= 0 && r < virt_base

let is_zero r = r = zero

let to_string r =
  if r = zero then "rz"
  else if is_virtual r then "v" ^ string_of_int (r - virt_base)
  else "r" ^ string_of_int r

let pp fmt r = Format.pp_print_string fmt (to_string r)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
