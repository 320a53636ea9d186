(* RISC-like three-address instructions. The set is deliberately small:
   just enough to express the workloads, register allocation (spills),
   Turnstile/Turnpike checkpointing, and region boundaries. *)

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
[@@deriving show { with_path = false }, eq, ord]

type cmp = Eq | Ne | Lt | Le | Gt | Ge
[@@deriving show { with_path = false }, eq, ord]

type operand = Reg of Reg.t | Imm of int
[@@deriving show { with_path = false }, eq, ord]

(* Memory-operation provenance, used by the paper's store-breakdown
   accounting (Fig 23): application memory, register-allocator spill
   traffic, or checkpoint storage (only recovery code loads it). *)
type mem_kind = App_mem | Spill_mem | Ckpt_mem
[@@deriving show { with_path = false }, eq, ord]

type t =
  | Binop of binop * Reg.t * Reg.t * operand
  | Cmp of cmp * Reg.t * Reg.t * operand
  | Mov of Reg.t * operand
  | Load of Reg.t * Reg.t * int * mem_kind
  | Store of Reg.t * Reg.t * int * mem_kind
  | Ckpt of Reg.t
  | Boundary of int
  | Nop
[@@deriving show { with_path = false }, eq, ord]

let defs = function
  | Binop (_, d, _, _) | Cmp (_, d, _, _) | Mov (d, _) | Load (d, _, _, _) ->
    if Reg.is_zero d then [] else [ d ]
  | Store _ | Ckpt _ | Boundary _ | Nop -> []

let operand_uses = function Reg r when not (Reg.is_zero r) -> [ r ] | Reg _ | Imm _ -> []

let uses = function
  | Binop (_, _, a, o) | Cmp (_, _, a, o) ->
    (if Reg.is_zero a then [] else [ a ]) @ operand_uses o
  | Mov (_, o) -> operand_uses o
  | Load (_, b, _, _) -> if Reg.is_zero b then [] else [ b ]
  | Store (s, b, _, _) ->
    (if Reg.is_zero s then [] else [ s ])
    @ (if Reg.is_zero b then [] else [ b ])
  | Ckpt r -> [ r ]
  | Boundary _ | Nop -> []

(* Allocation-free variants of [defs]/[uses] for the per-pass checks,
   whose traversals visit every instruction several times per compile;
   visit order matches the list versions. *)
let iter_defs f = function
  | Binop (_, d, _, _) | Cmp (_, d, _, _) | Mov (d, _) | Load (d, _, _, _) ->
    if not (Reg.is_zero d) then f d
  | Store _ | Ckpt _ | Boundary _ | Nop -> ()

let iter_operand_use f = function
  | Reg r when not (Reg.is_zero r) -> f r
  | Reg _ | Imm _ -> ()

let iter_uses f = function
  | Binop (_, _, a, o) | Cmp (_, _, a, o) ->
    if not (Reg.is_zero a) then f a;
    iter_operand_use f o
  | Mov (_, o) -> iter_operand_use f o
  | Load (_, b, _, _) -> if not (Reg.is_zero b) then f b
  | Store (s, b, _, _) ->
    if not (Reg.is_zero s) then f s;
    if not (Reg.is_zero b) then f b
  | Ckpt r -> f r
  | Boundary _ | Nop -> ()

let is_store = function Store _ -> true | _ -> false

let is_ckpt = function Ckpt _ -> true | _ -> false

let is_boundary = function Boundary _ -> true | _ -> false

(* Stores that occupy a store-buffer entry at commit: regular stores and
   checkpoint stores alike (paper §4.3 classification). *)
let is_sb_write i = is_store i || is_ckpt i

let is_pure = function
  | Binop _ | Cmp _ | Mov _ | Nop -> true
  | Load _ | Store _ | Ckpt _ | Boundary _ -> false

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)

let eval_cmp c a b =
  let r =
    match c with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let operand_to_string = function
  | Reg r -> Reg.to_string r
  | Imm i -> string_of_int i

let mem_suffix = function App_mem -> "" | Spill_mem -> ".spill" | Ckpt_mem -> ".ckpt"

let to_string = function
  | Binop (op, d, a, o) ->
    Printf.sprintf "%s %s, %s, %s" (binop_to_string op) (Reg.to_string d)
      (Reg.to_string a) (operand_to_string o)
  | Cmp (c, d, a, o) ->
    Printf.sprintf "cmp%s %s, %s, %s" (cmp_to_string c) (Reg.to_string d)
      (Reg.to_string a) (operand_to_string o)
  | Mov (d, o) ->
    Printf.sprintf "mov %s, %s" (Reg.to_string d) (operand_to_string o)
  | Load (d, b, off, k) ->
    Printf.sprintf "ld%s %s, [%s, #%d]" (mem_suffix k) (Reg.to_string d)
      (Reg.to_string b) off
  | Store (s, b, off, k) ->
    Printf.sprintf "st%s %s, [%s, #%d]" (mem_suffix k) (Reg.to_string s)
      (Reg.to_string b) off
  | Ckpt r -> Printf.sprintf "ckpt %s" (Reg.to_string r)
  | Boundary id -> Printf.sprintf "--- region %d ---" id
  | Nop -> "nop"

let rename f = function
  | Binop (op, d, a, o) ->
    let o = match o with Reg r -> Reg (f r) | Imm _ as i -> i in
    Binop (op, f d, f a, o)
  | Cmp (c, d, a, o) ->
    let o = match o with Reg r -> Reg (f r) | Imm _ as i -> i in
    Cmp (c, f d, f a, o)
  | Mov (d, o) ->
    let o = match o with Reg r -> Reg (f r) | Imm _ as i -> i in
    Mov (f d, o)
  | Load (d, b, off, k) -> Load (f d, f b, off, k)
  | Store (s, b, off, k) -> Store (f s, f b, off, k)
  | Ckpt r -> Ckpt (f r)
  | (Boundary _ | Nop) as i -> i
