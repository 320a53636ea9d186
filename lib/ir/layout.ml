(* Address-space layout shared by the compiler, interpreter and timing
   model. All addresses are byte addresses; data is word (8-byte) granular. *)

let word = 8

let data_base = 0x1000_0000

let spill_base = 0x2000_0000

let ckpt_base = 0x4000_0000

let colors = 4

let ckpt_slot ~reg ~color =
  if color < 0 || color >= colors then invalid_arg "Layout.ckpt_slot: color";
  ckpt_base + (reg * colors * word) + (color * word)

let spill_slot i =
  if i < 0 then invalid_arg "Layout.spill_slot: negative index";
  spill_base + (i * word)

let is_ckpt_addr a = a >= ckpt_base
