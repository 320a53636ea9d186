(* Reference interpreter for differential tests: the label-stepping
   interpreter [Turnpike_ir.Interp] replaced, kept as it was. State lives
   in hash tables, every step looks its block up by label, the pc is a
   fresh (label, index) record, and the trace is consed onto a list.
   Slow, but obviously faithful to the instruction semantics; the
   decoded interpreter must produce the same trace events and final
   state on every program. *)

open Turnpike_ir

type pc = { block : string; index : int }

type state = {
  regs : (Reg.t, int) Hashtbl.t;
  mem : (int, int) Hashtbl.t;
  mutable pc : pc;
  mutable steps : int;
  mutable halted : bool;
}

let get_reg st r = if Reg.is_zero r then 0 else Option.value (Hashtbl.find_opt st.regs r) ~default:0
let set_reg st r v = if not (Reg.is_zero r) then Hashtbl.replace st.regs r v
let get_mem st a = Option.value (Hashtbl.find_opt st.mem a) ~default:0
let set_mem st a v = Hashtbl.replace st.mem a v

let operand_value st = function Instr.Reg r -> get_reg st r | Instr.Imm i -> i

let init (prog : Prog.t) =
  let st =
    {
      regs = Hashtbl.create 64;
      mem = Hashtbl.create 4096;
      pc = { block = prog.func.Func.entry; index = 0 };
      steps = 0;
      halted = false;
    }
  in
  List.iter (fun (a, v) -> set_mem st a v) prog.mem_init;
  List.iter
    (fun (r, v) ->
      set_reg st r v;
      if not (Reg.is_zero r) then set_mem st (Layout.ckpt_slot ~reg:r ~color:0) v)
    prog.reg_init;
  st

let exec_instr on_event st (i : Instr.t) =
  match i with
  | Binop (op, d, a, o) ->
    set_reg st d (Instr.eval_binop op (get_reg st a) (operand_value st o));
    on_event (Trace.Alu { dst = Some d; srcs = Instr.uses i })
  | Cmp (c, d, a, o) ->
    set_reg st d (Instr.eval_cmp c (get_reg st a) (operand_value st o));
    on_event (Trace.Alu { dst = Some d; srcs = Instr.uses i })
  | Mov (d, o) ->
    set_reg st d (operand_value st o);
    on_event (Trace.Alu { dst = Some d; srcs = Instr.uses i })
  | Load (d, b, off, kind) ->
    let addr = get_reg st b + off in
    set_reg st d (get_mem st addr);
    on_event (Trace.Load { dst = d; srcs = Instr.uses i; addr; kind })
  | Store (s, b, off, kind) ->
    let addr = get_reg st b + off in
    set_mem st addr (get_reg st s);
    let cls =
      match kind with
      | Instr.Spill_mem -> Trace.Regular_spill
      | Instr.App_mem | Instr.Ckpt_mem -> Trace.Regular_app
    in
    on_event (Trace.Store { srcs = Instr.uses i; addr; cls })
  | Ckpt r ->
    set_mem st (Layout.ckpt_slot ~reg:r ~color:0) (get_reg st r);
    on_event (Trace.Ckpt { src = r })
  | Boundary id -> on_event (Trace.Boundary { region = id })
  | Nop -> on_event (Trace.Alu { dst = None; srcs = [] })

(* Layout successors: each label mapped to the block that follows it in
   emission order. A jump or branch to it is a fall-through (no fetch
   redirect). *)
let fallthrough_table func =
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | a :: (b :: _ as rest) ->
      Hashtbl.replace tbl a b;
      go rest
    | [ _ ] | [] -> ()
  in
  go (Func.labels func);
  tbl

let step ~on_event ~fallthrough func st =
  if not st.halted then begin
    let b = Func.block func st.pc.block in
    if st.pc.index < Array.length b.Block.body then begin
      exec_instr on_event st b.Block.body.(st.pc.index);
      st.pc <- { st.pc with index = st.pc.index + 1 }
    end
    else begin
      let next = Hashtbl.find_opt fallthrough st.pc.block in
      let falls_to l = match next with Some n -> String.equal n l | None -> false in
      let site = Hashtbl.hash st.pc.block in
      match b.Block.term with
      | Block.Jump l ->
        if not (falls_to l) then on_event (Trace.Branch { srcs = []; taken = true; pc = site });
        st.pc <- { block = l; index = 0 }
      | Block.Branch (r, l1, l2) ->
        let target = if get_reg st r <> 0 then l1 else l2 in
        on_event (Trace.Branch { srcs = [ r ]; taken = not (falls_to target); pc = site });
        st.pc <- { block = target; index = 0 }
      | Block.Ret -> st.halted <- true
    end;
    st.steps <- st.steps + 1
  end

let trace_run ~fuel (prog : Prog.t) =
  let events = ref [] in
  let on_event e = events := e :: !events in
  let st = init prog in
  let fallthrough = fallthrough_table prog.func in
  let budget = ref fuel in
  while (not st.halted) && !budget > 0 do
    step ~on_event ~fallthrough prog.func st;
    decr budget
  done;
  ({ Trace.events = Array.of_list (List.rev !events); complete = st.halted }, st)
