(* Architectural fault model. A soft error strikes one register at a given
   dynamic step and flips some of its bits; acoustic sensors detect the
   strike within the worst-case detection latency. Per the paper's fault
   model (§5), SB/RBB/CLQ/color maps, caches and the address generation
   unit are hardened, and a per-register parity bit turns any access to a
   struck register used for addressing into an immediate detection. *)

open Turnpike_ir

type t = {
  at_step : int; (* dynamic step at which the strike lands *)
  reg : Reg.t; (* struck register *)
  xor_mask : int; (* bit flips applied to its value *)
}
[@@deriving show { with_path = false }, eq]

let create ~at_step ~reg ~xor_mask =
  if at_step < 0 then invalid_arg "Fault.create: negative step";
  if xor_mask = 0 then invalid_arg "Fault.create: empty mask";
  if Reg.is_zero reg then invalid_arg "Fault.create: the zero register is immune";
  { at_step; reg; xor_mask }

let single_bit ~at_step ~reg ~bit =
  if bit < 0 || bit > 62 then invalid_arg "Fault.single_bit: bit out of range";
  create ~at_step ~reg ~xor_mask:(1 lsl bit)

(* A deterministic integer mixer: campaign draws and sampled detection
   latencies both come from it. *)
let mix a b =
  let z = ref ((a * 0x9E3779B9) + (b * 0x85EBCA6B) + 0x165667B1) in
  z := !z lxor (!z lsr 15);
  z := !z * 0x2C1B3C6D;
  z := !z lxor (!z lsr 13);
  !z land max_int

(* Register names are identifier-like and masks are ints: no escaping
   needed for a fixed-shape, machine-readable record. *)
let to_json t =
  Printf.sprintf "{\"at_step\":%d,\"reg\":\"%s\",\"xor_mask\":%d}" t.at_step
    (Reg.to_string t.reg) t.xor_mask
