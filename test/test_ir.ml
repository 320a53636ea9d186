(* Unit and property tests for the IR substrate: registers, layout,
   instructions, blocks, functions, CFG, dominance, loops, liveness,
   builder and the interpreter. *)

open Turnpike_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Shared tiny programs. *)

(* entry -> loop(head) -> exit: sum of 0..n-1 into an output cell. *)
let sum_prog n =
  let b = Builder.create "sum" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  let acc = Builder.fresh_reg b and i = Builder.fresh_reg b in
  Builder.mov b ~dst:acc (Imm 0);
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "head";
  Builder.label b "head";
  Builder.add b ~dst:acc ~a:acc (Reg i);
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm n);
  Builder.branch b ~cond:c ~if_true:"head" ~if_false:"exit";
  Builder.label b "exit";
  Builder.store b ~src:acc ~base:ob ();
  Builder.ret b;
  (Builder.finish b, out)

(* A diamond: entry -> (left | right) -> join. *)
let diamond_prog ~take_left =
  let b = Builder.create "diamond" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b and c = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  Builder.mov b ~dst:c (Imm (if take_left then 1 else 0));
  let v = Builder.fresh_reg b in
  Builder.branch b ~cond:c ~if_true:"left" ~if_false:"right";
  Builder.label b "left";
  Builder.mov b ~dst:v (Imm 111);
  Builder.jump b "join";
  Builder.label b "right";
  Builder.mov b ~dst:v (Imm 222);
  Builder.jump b "join";
  Builder.label b "join";
  Builder.store b ~src:v ~base:ob ();
  Builder.ret b;
  (Builder.finish b, out)

(* ------------------------------------------------------------------ *)
(* Reg / Layout *)

let test_reg_classification () =
  check "zero is physical" true (Reg.is_physical Reg.zero);
  check "zero is zero" true (Reg.is_zero Reg.zero);
  check "phys 5 physical" true (Reg.is_physical (Reg.phys 5));
  check "virt 0 virtual" true (Reg.is_virtual (Reg.virt 0));
  check "virt not physical" false (Reg.is_physical (Reg.virt 3));
  Alcotest.(check string) "phys name" "r7" (Reg.to_string (Reg.phys 7));
  Alcotest.(check string) "virt name" "v2" (Reg.to_string (Reg.virt 2));
  Alcotest.(check string) "zero name" "rz" (Reg.to_string Reg.zero)

let test_reg_invalid () =
  Alcotest.check_raises "phys too big" (Invalid_argument "Reg.phys: 1024 out of range")
    (fun () -> ignore (Reg.phys Reg.virt_base));
  Alcotest.check_raises "virt negative" (Invalid_argument "Reg.virt: negative id")
    (fun () -> ignore (Reg.virt (-1)))

let test_layout_slots () =
  check_int "ckpt slot color stride" Layout.word
    (Layout.ckpt_slot ~reg:3 ~color:1 - Layout.ckpt_slot ~reg:3 ~color:0);
  check_int "ckpt slot reg stride" (Layout.colors * Layout.word)
    (Layout.ckpt_slot ~reg:4 ~color:0 - Layout.ckpt_slot ~reg:3 ~color:0);
  check "ckpt addr recognized" true (Layout.is_ckpt_addr (Layout.ckpt_slot ~reg:0 ~color:0));
  check "spill addr recognized" true (Layout.is_spill_addr (Layout.spill_slot 0));
  check "spill not ckpt" false (Layout.is_ckpt_addr (Layout.spill_slot 9));
  check_int "slot owner roundtrip" 11
    (Layout.ckpt_slot_reg (Layout.ckpt_slot ~reg:11 ~color:2))

(* ------------------------------------------------------------------ *)
(* Instr *)

let test_instr_defs_uses () =
  let i = Instr.Binop (Instr.Add, 1, 2, Instr.Reg 3) in
  Alcotest.(check (list int)) "binop defs" [ 1 ] (Instr.defs i);
  Alcotest.(check (list int)) "binop uses" [ 2; 3 ] (Instr.uses i);
  let st = Instr.Store (4, 5, 8, Instr.App_mem) in
  Alcotest.(check (list int)) "store defs" [] (Instr.defs st);
  Alcotest.(check (list int)) "store uses" [ 4; 5 ] (Instr.uses st);
  Alcotest.(check (list int)) "ckpt uses" [ 6 ] (Instr.uses (Instr.Ckpt 6));
  (* The zero register never appears as def or use. *)
  Alcotest.(check (list int)) "zero def dropped" []
    (Instr.defs (Instr.Mov (Reg.zero, Instr.Imm 3)));
  Alcotest.(check (list int)) "zero use dropped" []
    (Instr.uses (Instr.Load (2, Reg.zero, 16, Instr.Spill_mem)))

let test_instr_classes () =
  check "store is sb write" true (Instr.is_sb_write (Instr.Store (1, 2, 0, Instr.App_mem)));
  check "ckpt is sb write" true (Instr.is_sb_write (Instr.Ckpt 1));
  check "load not sb write" false (Instr.is_sb_write (Instr.Load (1, 2, 0, Instr.App_mem)));
  check "mov pure" true (Instr.is_pure (Instr.Mov (1, Instr.Imm 0)));
  check "load impure" false (Instr.is_pure (Instr.Load (1, 2, 0, Instr.App_mem)));
  check "boundary marker" true (Instr.is_boundary (Instr.Boundary 4))

let test_instr_eval () =
  check_int "add" 7 (Instr.eval_binop Instr.Add 3 4);
  check_int "sub" (-1) (Instr.eval_binop Instr.Sub 3 4);
  check_int "mul" 12 (Instr.eval_binop Instr.Mul 3 4);
  check_int "div" 2 (Instr.eval_binop Instr.Div 9 4);
  check_int "div by zero is 0" 0 (Instr.eval_binop Instr.Div 9 0);
  check_int "rem by zero is 0" 0 (Instr.eval_binop Instr.Rem 9 0);
  check_int "shl" 24 (Instr.eval_binop Instr.Shl 3 3);
  check_int "shr" 3 (Instr.eval_binop Instr.Shr 24 3);
  check_int "cmp lt true" 1 (Instr.eval_cmp Instr.Lt 1 2);
  check_int "cmp lt false" 0 (Instr.eval_cmp Instr.Lt 2 1);
  check_int "cmp eq" 1 (Instr.eval_cmp Instr.Eq 5 5);
  check_int "cmp ge" 1 (Instr.eval_cmp Instr.Ge 5 5)

let test_instr_rename () =
  let i = Instr.Binop (Instr.Xor, 1, 2, Instr.Reg 3) in
  let j = Instr.rename (fun r -> r + 10) i in
  check "renamed" true (Instr.equal j (Instr.Binop (Instr.Xor, 11, 12, Instr.Reg 13)));
  (* Identity rename is the identity. *)
  check "identity" true (Instr.equal i (Instr.rename (fun r -> r) i));
  (* Immediates are untouched. *)
  let m = Instr.Mov (1, Instr.Imm 42) in
  check "imm untouched" true (Instr.equal (Instr.Mov (9, Instr.Imm 42)) (Instr.rename (fun _ -> 9) m))

(* ------------------------------------------------------------------ *)
(* Block / Func *)

let test_block_successors () =
  let b = Block.create ~term:(Block.Branch (1, "a", "b")) "x" in
  check_list "branch succs" [ "a"; "b" ] (Block.successors b);
  let b2 = Block.create ~term:(Block.Branch (1, "a", "a")) "y" in
  check_list "dedup succs" [ "a" ] (Block.successors b2);
  let b3 = Block.create ~term:Block.Ret "z" in
  check_list "ret succs" [] (Block.successors b3);
  Alcotest.(check (list int)) "term uses" [ 1 ] (Block.term_uses b)

let test_block_counts () =
  let body =
    [| Instr.Store (1, 2, 0, Instr.App_mem); Instr.Ckpt 3; Instr.Nop;
       Instr.Load (4, 5, 0, Instr.App_mem) |]
  in
  let b = Block.create ~body "c" in
  check_int "num instrs" 4 (Block.num_instrs b);
  check_int "num sb writes" 2 (Block.num_stores b)

let test_func_validate () =
  let good = Func.create ~name:"f" ~entry:"a"
      [ Block.create ~term:(Block.Jump "b") "a"; Block.create "b" ]
  in
  check_list "valid" [] (Func.validate good);
  let bad = Func.create ~name:"g" ~entry:"a"
      [ Block.create ~term:(Block.Jump "missing") "a" ]
  in
  check_int "invalid has errors" 1 (List.length (Func.validate bad))

let test_func_duplicate_label () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Func.create: duplicate label a") (fun () ->
      ignore (Func.create ~name:"f" ~entry:"a" [ Block.create "a"; Block.create "a" ]))

let test_func_copy_independent () =
  let prog, _ = sum_prog 3 in
  let f = prog.Prog.func in
  let g = Func.copy f in
  (Func.block g "head").Block.body.(0) <- Instr.Nop;
  check "copy is deep" false
    (Instr.equal (Func.block f "head").Block.body.(0) Instr.Nop)

let test_func_add_block_and_fallthrough () =
  let f = Func.create ~name:"f" ~entry:"a"
      [ Block.create ~term:(Block.Jump "b") "a"; Block.create "b" ]
  in
  Func.add_block f (Block.create "mid") ~after:"a";
  check_list "order" [ "a"; "mid"; "b" ] (Func.labels f)

(* ------------------------------------------------------------------ *)
(* Cfg / Dominance / Loops / Liveness *)

let test_cfg_preds_rpo () =
  let prog, _ = diamond_prog ~take_left:true in
  let cfg = Cfg.build prog.Prog.func in
  check_list "join preds" [ "right"; "left" ]
    (Cfg.predecessors cfg "join" |> List.sort compare |> List.rev);
  let rpo = Cfg.reverse_postorder cfg in
  Alcotest.(check string) "entry first" "entry" (List.hd rpo);
  check "join last-ish" true
    (Cfg.rpo_number cfg "join" > Cfg.rpo_number cfg "left");
  check "reachable" true (Cfg.is_reachable cfg "right")

let test_cfg_unreachable () =
  let f = Func.create ~name:"f" ~entry:"a"
      [ Block.create "a"; Block.create "island" ]
  in
  let cfg = Cfg.build f in
  check "island unreachable" false (Cfg.is_reachable cfg "island");
  Alcotest.(check (option int)) "no rpo" None (Cfg.rpo_number cfg "island")

let test_dominance_diamond () =
  let prog, _ = diamond_prog ~take_left:true in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  check "entry dominates join" true (Dominance.dominates dom ~dom:"entry" ~sub:"join");
  check "left not dominating join" false (Dominance.dominates dom ~dom:"left" ~sub:"join");
  Alcotest.(check (option string)) "idom join" (Some "entry") (Dominance.idom dom "join");
  Alcotest.(check (option string)) "idom entry" None (Dominance.idom dom "entry");
  check "reflexive" true (Dominance.dominates dom ~dom:"left" ~sub:"left");
  check "strict not reflexive" false (Dominance.strictly_dominates dom ~dom:"left" ~sub:"left");
  check_list "dominators of join" [ "entry"; "join" ]
    (List.sort compare (Dominance.dominators dom "join"))

let test_loops_simple () =
  let prog, _ = sum_prog 5 in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  check "head is header" true (Loop_info.is_header loops "head");
  check "entry not header" false (Loop_info.is_header loops "entry");
  check_int "depth of head" 1 (Loop_info.depth loops "head");
  check_int "depth of exit" 0 (Loop_info.depth loops "exit");
  match Loop_info.loop_of_header loops "head" with
  | None -> Alcotest.fail "loop not found"
  | Some lp ->
    check_list "latches" [ "head" ] lp.Loop_info.latches;
    check_list "body" [ "head" ] lp.Loop_info.blocks;
    let exits = Loop_info.exits loops cfg "head" in
    check "exit edge to exit" true (List.mem ("head", "exit") exits)

let test_loops_nested () =
  let b = Builder.create "nest" in
  Builder.label b "entry";
  let i = Builder.fresh_reg b and j = Builder.fresh_reg b in
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "outer";
  Builder.label b "outer";
  Builder.mov b ~dst:j (Imm 0);
  Builder.jump b "inner";
  Builder.label b "inner";
  Builder.add b ~dst:j ~a:j (Imm 1);
  let cj = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:cj ~a:j (Imm 3);
  Builder.branch b ~cond:cj ~if_true:"inner" ~if_false:"outer_latch";
  Builder.label b "outer_latch";
  Builder.add b ~dst:i ~a:i (Imm 1);
  let ci = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:ci ~a:i (Imm 3);
  Builder.branch b ~cond:ci ~if_true:"outer" ~if_false:"done";
  Builder.label b "done";
  Builder.ret b;
  let prog = Builder.finish b in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  check_int "inner depth 2" 2 (Loop_info.depth loops "inner");
  check_int "outer depth 1" 1 (Loop_info.depth loops "outer");
  (match Loop_info.loop_of_header loops "inner" with
  | Some lp -> Alcotest.(check (option string)) "parent" (Some "outer") lp.Loop_info.parent
  | None -> Alcotest.fail "inner loop missing");
  check_int "two loops" 2 (List.length (Loop_info.loops loops))

let test_liveness_loop () =
  let prog, _ = sum_prog 4 in
  let f = prog.Prog.func in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg f in
  (* acc (v1) and i (v2) are loop-carried: live into head. *)
  let head_in = Liveness.live_in live "head" in
  check "acc live at head" true (Reg.Set.mem (Reg.virt 1) head_in);
  check "i live at head" true (Reg.Set.mem (Reg.virt 2) head_in);
  (* output base is live through the loop into exit. *)
  check "ob live at exit" true (Reg.Set.mem (Reg.virt 0) (Liveness.live_in live "exit"));
  (* The compare temp is dead across iterations. *)
  check "cmp temp dead at head" false (Reg.Set.mem (Reg.virt 3) head_in)

let test_liveness_per_instruction () =
  let prog, _ = sum_prog 4 in
  let f = prog.Prog.func in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg f in
  let head = Func.block f "head" in
  let before = Liveness.live_before_each live head in
  check_int "slots" (Block.num_instrs head + 1) (Array.length before);
  (* Before the terminator, the branch condition is live. *)
  check "cond live before term" true (Reg.Set.mem (Reg.virt 3) before.(Array.length before - 1))

(* ------------------------------------------------------------------ *)
(* Builder / Interp *)

let test_builder_implicit_fallthrough () =
  let b = Builder.create "ft" in
  Builder.label b "a";
  Builder.nop b;
  Builder.label b "b" (* implicit jump a->b *);
  Builder.ret b;
  let prog = Builder.finish b in
  match (Func.block prog.Prog.func "a").Block.term with
  | Block.Jump "b" -> ()
  | _ -> Alcotest.fail "expected implicit jump"

let test_builder_errors () =
  let b = Builder.create "e" in
  Alcotest.check_raises "emit outside block"
    (Invalid_argument "Builder: instruction outside any block") (fun () ->
      Builder.nop b)

let test_interp_sum () =
  let prog, out = sum_prog 10 in
  let st = Interp.run prog in
  check_int "sum 0..9" 45 (Interp.get_mem st out);
  check "halted" true st.Interp.halted

let test_interp_diamond () =
  let prog, out = diamond_prog ~take_left:true in
  check_int "left path" 111 (Interp.get_mem (Interp.run prog) out);
  let prog2, out2 = diamond_prog ~take_left:false in
  check_int "right path" 222 (Interp.get_mem (Interp.run prog2) out2)

let test_interp_zero_reg () =
  let b = Builder.create "z" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 7) in
  let r = Builder.fresh_reg b in
  (* Writing the zero register is discarded. *)
  Builder.emit b (Instr.Mov (Reg.zero, Instr.Imm 99));
  Builder.emit b (Instr.Binop (Instr.Add, r, Reg.zero, Instr.Imm out));
  Builder.emit b (Instr.Store (Reg.zero, r, 0, Instr.App_mem));
  Builder.ret b;
  let st = Interp.run (Builder.finish b) in
  check_int "store of zero" 0 (Interp.get_mem st out)

let test_interp_out_of_fuel () =
  let b = Builder.create "inf" in
  Builder.label b "spin";
  Builder.nop b;
  Builder.jump b "spin";
  let prog = Builder.finish b in
  Alcotest.check_raises "out of fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:100 prog))

let test_interp_ckpt_default () =
  let b = Builder.create "ck" in
  Builder.label b "entry";
  let r = Builder.fresh_reg b in
  Builder.mov b ~dst:r (Imm 77);
  Builder.emit b (Instr.Ckpt r);
  Builder.ret b;
  let prog = Builder.finish b in
  let st = Interp.run prog in
  check_int "ckpt slot color0" 77
    (Interp.get_mem st (Layout.ckpt_slot ~reg:r ~color:0))

let test_trace_counts () =
  let prog, _ = sum_prog 5 in
  let trace, st = Interp.trace_run prog in
  check "complete" true trace.Trace.complete;
  check "halted" true st.Interp.halted;
  (* 5 iterations x (2 adds + cmp) + 4 entry movs + store + branches. *)
  check_int "loads" 0 (Trace.count (function Trace.Load _ -> true | _ -> false) trace);
  check_int "stores" 1 (Trace.count (function Trace.Store _ -> true | _ -> false) trace);
  check_int "sb writes" 1 (Trace.num_sb_writes trace);
  check_int "no boundaries" 0 (Trace.num_boundaries trace);
  check "instr count sane" true (Trace.num_instructions trace >= 20)

let test_trace_fallthrough_branches () =
  (* The loop's back edge is a fetch redirect; the final exit edge is a
     fall-through. *)
  let prog, _ = sum_prog 3 in
  let trace, _ = Interp.trace_run prog in
  let taken = Trace.count (function Trace.Branch { taken = true; _ } -> true | _ -> false) trace in
  let not_taken = Trace.count (function Trace.Branch { taken = false; _ } -> true | _ -> false) trace in
  (* Three iterations take the back edge twice; the entry->head jump is a
     fall-through and emits nothing. *)
  check_int "taken = back edges" 2 taken;
  (* The final exit edge is a fall-through branch. *)
  check_int "fallthrough exit" 1 not_taken

let test_interp_mem_equal () =
  let prog, _ = sum_prog 6 in
  let a = Interp.run prog and b = Interp.run prog in
  check "identical runs equal" true (Mem.first_diff a.Interp.mem b.Interp.mem = None);
  Interp.set_mem a 0x1234_5678 9;
  check "divergent not equal" true
    (Mem.first_diff a.Interp.mem b.Interp.mem = Some 0x1234_5678);
  (* Checkpoint-space differences are ignored below [ckpt_base]. *)
  let c = Interp.run prog and d = Interp.run prog in
  Interp.set_mem c (Layout.ckpt_slot ~reg:1 ~color:0) 5;
  check "ckpt space excluded" true
    (Mem.first_diff ~hi:Layout.ckpt_base c.Interp.mem d.Interp.mem = None);
  check "ckpt space compared" true
    (Mem.first_diff c.Interp.mem d.Interp.mem = Some (Layout.ckpt_slot ~reg:1 ~color:0))

(* ------------------------------------------------------------------ *)
(* The decoded interpreter against the reference label stepper
   (Interp_ref): same trace, event for event, and the same final memory,
   registers, step count and halt flag, on every suite kernel and on
   fuzzed programs, complete and fuel-truncated. *)

module Suite = Turnpike_workloads.Suite
module Scheme = Turnpike.Scheme
module PP = Turnpike_compiler.Pass_pipeline

let same_as_reference ~what ~fuel prog =
  let t, st = Interp.trace_run ~fuel prog in
  let rt, rst = Interp_ref.trace_run ~fuel prog in
  let fail fmt = Alcotest.failf ("%s (fuel %d): " ^^ fmt) what fuel in
  if Trace.length t <> Trace.length rt then
    fail "%d trace events, reference %d" (Trace.length t) (Trace.length rt);
  Array.iteri
    (fun k e ->
      if not (Trace.equal_event e rt.Trace.events.(k)) then
        fail "event %d is %s, reference %s" k (Trace.show_event e)
          (Trace.show_event rt.Trace.events.(k)))
    t.Trace.events;
  if t.Trace.complete <> rt.Trace.complete then fail "complete flags differ";
  if st.Interp.steps <> rst.Interp_ref.steps then
    fail "%d steps, reference %d" st.Interp.steps rst.Interp_ref.steps;
  if st.Interp.halted <> rst.Interp_ref.halted then fail "halted flags differ";
  (* Every address either side wrote reads the same, absent words as 0. *)
  let check_addr a =
    let v = Interp.get_mem st a and rv = Interp_ref.get_mem rst a in
    if v <> rv then fail "memory at %#x is %d, reference %d" a v rv
  in
  Hashtbl.iter (fun a _ -> check_addr a) rst.Interp_ref.mem;
  List.iter (fun (a, _) -> check_addr a) (Mem.bindings st.Interp.mem);
  Hashtbl.iter
    (fun r v -> if Interp.get_reg st r <> v then fail "register %s differs" (Reg.to_string r))
    rst.Interp_ref.regs;
  Array.iteri
    (fun r v ->
      if v <> Interp_ref.get_reg rst r then fail "register %s differs" (Reg.to_string r))
    st.Interp.regs

let schemes = [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ]

let compiled s prog = (PP.compile ~opts:(Scheme.compile_opts s ~sb_size:4) prog).PP.prog

let test_reference_suite () =
  List.iter
    (fun b ->
      let prog = b.Suite.build ~scale:1 in
      let name = Suite.qualified_name b in
      List.iter
        (fun (s : Scheme.t) ->
          let c = compiled s prog in
          List.iter
            (fun fuel -> same_as_reference ~what:(name ^ "/" ^ s.Scheme.name) ~fuel c)
            [ 20_000; 1_000 ])
        schemes;
      same_as_reference ~what:(name ^ "/source") ~fuel:20_000 prog)
    (Suite.all ())

let test_reference_fuzz () =
  for seed = 0 to 199 do
    let src = Turnpike_frontend.Fuzz.generate ~seed in
    match Turnpike_frontend.Tk.compile_string ~scale:1 src with
    | Error e -> Alcotest.failf "fuzz seed %d rejected: %s" seed e
    | Ok prog ->
      let what tag = Printf.sprintf "fuzz seed %d %s" seed tag in
      same_as_reference ~what:(what "lowered") ~fuel:200_000 prog;
      same_as_reference ~what:(what "turnpike") ~fuel:200_000 (compiled Scheme.turnpike prog);
      same_as_reference ~what:(what "turnstile") ~fuel:200_000
        (compiled Scheme.turnstile prog)
  done

(* [Interp.trace_run] fills 256-slot chunks and concatenates them at the
   end, so a trace that ends just before, at or just after a chunk
   boundary must come out whole, and so must an empty one. Each step emits
   at most one event, so bisecting on the fuel finds a cut of any length. *)
let test_reference_chunk_boundaries () =
  let prog =
    compiled Scheme.turnpike ((List.hd (Suite.find_by_name "libquan")).Suite.build ~scale:1)
  in
  let events fuel = Trace.length (fst (Interp_ref.trace_run ~fuel prog)) in
  (* the smallest fuel whose trace has [n] events *)
  let fuel_for n =
    let rec above hi = if events hi >= n then hi else above (2 * hi) in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if events mid >= n then bisect lo mid else bisect (mid + 1) hi
    in
    bisect 0 (above n)
  in
  List.iter
    (fun n ->
      let fuel = fuel_for n in
      check_int (Printf.sprintf "fuel %d cuts %d events" fuel n) n
        (Trace.length (fst (Interp.trace_run ~fuel prog)));
      same_as_reference ~what:(Printf.sprintf "libquan cut at %d events" n) ~fuel prog)
    [ 255; 256; 257; 511; 512; 513 ];
  (* A fall-through jump and a return: steps, but no event. *)
  let b = Builder.create "silent" in
  Builder.label b "a";
  Builder.label b "b";
  Builder.ret b;
  let silent = Builder.finish b in
  check_int "silent program: no event" 0 (Trace.length (fst (Interp.trace_run silent)));
  same_as_reference ~what:"silent program" ~fuel:100 silent

(* ------------------------------------------------------------------ *)
(* The dense block-index analyses against the string-keyed ones they
   replaced (Analysis_ref): every public query of Cfg, Liveness,
   Dominance and Loop_info answers the same, list orders included —
   Livm iterates [Loop_info.loops], so its order decides codegen. *)

module Ref = Analysis_ref

let same_analyses ?(liveness = true) ~what (f : Func.t) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let strs = String.concat "," in
  (* compared as rendered: equal sets may differ in tree shape *)
  let eq name show a b =
    let a = show a and b = show b in
    if a <> b then fail "%s: %s, reference %s" name a b
  in
  let opt show = function None -> "-" | Some x -> show x in
  let set s = strs (List.map Reg.to_string (Reg.Set.elements s)) in
  let labels = Func.labels f in
  (* an unknown label is a legal query for the non-raising lookups *)
  let probes = labels @ [ "<no such block>" ] in
  let cfg = Cfg.build f and rcfg = Ref.Cfg.build f in
  eq "reverse_postorder" strs (Cfg.reverse_postorder cfg) (Ref.Cfg.reverse_postorder rcfg);
  eq "postorder" strs (Cfg.postorder cfg) (Ref.Cfg.postorder rcfg);
  eq "reachable_labels" strs (Cfg.reachable_labels cfg) (Ref.Cfg.reachable_labels rcfg);
  List.iter
    (fun l ->
      eq ("predecessors " ^ l) strs (Cfg.predecessors cfg l) (Ref.Cfg.predecessors rcfg l);
      eq ("rpo_number " ^ l) (opt string_of_int) (Cfg.rpo_number cfg l)
        (Ref.Cfg.rpo_number rcfg l);
      eq ("is_reachable " ^ l) string_of_bool (Cfg.is_reachable cfg l)
        (Ref.Cfg.is_reachable rcfg l))
    probes;
  List.iter
    (fun l ->
      eq ("successors " ^ l) strs (Cfg.successors cfg l) (Ref.Cfg.successors rcfg l);
      List.iter
        (fun m ->
          eq
            (Printf.sprintf "is_back_edge_candidate %s->%s" l m)
            string_of_bool
            (Cfg.is_back_edge_candidate cfg ~src:l ~dst:m)
            (Ref.Cfg.is_back_edge_candidate rcfg ~src:l ~dst:m))
        probes)
    labels;
  if liveness then begin
    let live = Liveness.compute cfg f and rlive = Ref.Liveness.compute rcfg f in
    List.iter
      (fun l ->
        eq ("live_in " ^ l) set (Liveness.live_in live l) (Ref.Liveness.live_in rlive l);
        eq ("live_out " ^ l) set (Liveness.live_out live l) (Ref.Liveness.live_out rlive l))
      probes;
    Func.iter_blocks
      (fun b ->
        let sets a = strs (Array.to_list (Array.map set a)) in
        eq ("live_before_each " ^ b.Block.label) sets (Liveness.live_before_each live b)
          (Ref.Liveness.live_before_each rlive b))
      f
  end;
  let dom = Dominance.compute cfg and rdom = Ref.Dominance.compute rcfg in
  List.iter
    (fun l ->
      eq ("idom " ^ l) (opt Fun.id) (Dominance.idom dom l) (Ref.Dominance.idom rdom l);
      eq ("dominators " ^ l) strs (Dominance.dominators dom l)
        (Ref.Dominance.dominators rdom l);
      List.iter
        (fun m ->
          eq
            (Printf.sprintf "dominates %s %s" l m)
            string_of_bool
            (Dominance.dominates dom ~dom:l ~sub:m)
            (Ref.Dominance.dominates rdom ~dom:l ~sub:m);
          eq
            (Printf.sprintf "strictly_dominates %s %s" l m)
            string_of_bool
            (Dominance.strictly_dominates dom ~dom:l ~sub:m)
            (Ref.Dominance.strictly_dominates rdom ~dom:l ~sub:m))
        probes)
    probes;
  let loops = Loop_info.compute cfg dom and rloops = Ref.Loop_info.compute rcfg rdom in
  let loop (lp : Loop_info.loop) =
    Printf.sprintf "%s latches=%s blocks=%s depth=%d parent=%s" lp.Loop_info.header
      (strs lp.Loop_info.latches) (strs lp.Loop_info.blocks) lp.Loop_info.depth
      (opt Fun.id lp.Loop_info.parent)
  and rloop (lp : Ref.Loop_info.loop) =
    Printf.sprintf "%s latches=%s blocks=%s depth=%d parent=%s" lp.Ref.Loop_info.header
      (strs lp.Ref.Loop_info.latches) (strs lp.Ref.Loop_info.blocks)
      lp.Ref.Loop_info.depth (opt Fun.id lp.Ref.Loop_info.parent)
  in
  eq "loops" strs
    (List.map loop (Loop_info.loops loops))
    (List.map rloop (Ref.Loop_info.loops rloops));
  let edges = List.map (fun (a, b) -> a ^ "->" ^ b) in
  List.iter
    (fun l ->
      eq ("loop_of_header " ^ l) (opt Fun.id)
        (Option.map loop (Loop_info.loop_of_header loops l))
        (Option.map rloop (Ref.Loop_info.loop_of_header rloops l));
      eq ("innermost_loop " ^ l) (opt Fun.id)
        (Option.map loop (Loop_info.innermost_loop loops l))
        (Option.map rloop (Ref.Loop_info.innermost_loop rloops l));
      eq ("is_header " ^ l) string_of_bool (Loop_info.is_header loops l)
        (Ref.Loop_info.is_header rloops l);
      eq ("depth " ^ l) string_of_int (Loop_info.depth loops l) (Ref.Loop_info.depth rloops l);
      eq ("exits " ^ l) (fun e -> strs (edges e)) (Loop_info.exits loops cfg l)
        (Ref.Loop_info.exits rloops rcfg l);
      List.iter
        (fun m ->
          eq
            (Printf.sprintf "in_loop %s %s" l m)
            string_of_bool
            (Loop_info.in_loop loops ~header:l ~block:m)
            (Ref.Loop_info.in_loop rloops ~header:l ~block:m))
        labels)
    probes

(* The same function plus an unreachable island: two blocks that loop on
   each other and branch into the reachable code (unreachable
   predecessors, registers used only there, a loop no back-edge search
   can reach), and one that jumps to a label the function lacks. *)
let with_island (f : Func.t) =
  let f = Func.copy f in
  let last = List.nth (Func.labels f) (List.length (Func.labels f) - 1) in
  Func.add_block f ~after:last
    (Block.create
       ~body:(Array.copy (Func.block f last).Block.body)
       ~term:(Block.Branch (Reg.phys 3, "island.b", last))
       "island.a");
  Func.add_block f ~after:"island.a"
    (Block.create ~term:(Block.Branch (Reg.phys 4, "island.a", f.Func.entry)) "island.b");
  Func.add_block f ~after:"island.b"
    (Block.create ~term:(Block.Jump "<no such block>") "island.c");
  f

(* A loop whose branch tests a register set in an earlier block, so the
   terminator's use is live across an edge — lowered programs compare
   right before they branch. *)
let cross_block_branch () =
  let b = Builder.create "xbranch" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b and i = Builder.fresh_reg b and c = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "test";
  Builder.label b "test";
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm 3);
  Builder.jump b "body";
  Builder.label b "body";
  Builder.add b ~dst:i ~a:i (Imm 1);
  Builder.branch b ~cond:c ~if_true:"test" ~if_false:"exit";
  Builder.label b "exit";
  Builder.store b ~src:i ~base:ob ();
  Builder.ret b;
  Builder.finish b

(* The layout order of hand-built IR can list a block twice and leave a
   reachable one out (the wellformed check reports both, then builds the
   CFG anyway): here the last block is listed twice and the entry's first
   successor not at all. Liveness is left out of the comparison, since
   the reference raises [Not_found] on the unlisted block. *)
let misordered (f : Func.t) =
  let f = Func.copy f in
  (match Block.successors (Func.entry_block f) with
  | s :: _ ->
    let order = List.filter (fun l -> not (String.equal l s)) f.Func.order in
    f.Func.order <- order @ [ List.nth order (List.length order - 1) ]
  | [] -> ());
  f

let analysis_corpus () =
  let fuzz =
    List.init 200 (fun seed ->
        match Turnpike_frontend.Tk.compile_string ~scale:1 (Turnpike_frontend.Fuzz.generate ~seed) with
        | Ok prog -> (Printf.sprintf "fuzz seed %d" seed, prog)
        | Error e -> Alcotest.failf "fuzz seed %d rejected: %s" seed e)
  in
  let examples =
    let dir =
      List.find Sys.file_exists [ Filename.concat ".." "examples"; "examples" ]
    in
    Sys.readdir dir |> Array.to_list |> List.filter Turnpike_frontend.Tk.is_tk_file
    |> List.sort compare
    |> List.map (fun file ->
           match Turnpike_frontend.Tk.compile_file ~scale:1 (Filename.concat dir file) with
           | Ok prog -> (file, prog)
           | Error e -> Alcotest.failf "%s: %s" file e)
  in
  List.map (fun b -> (Suite.qualified_name b, b.Suite.build ~scale:1)) (Suite.all ())
  @ examples @ fuzz
  @ [ ("cross-block branch", cross_block_branch ()) ]

let test_analyses_match_reference () =
  let corpus = analysis_corpus () in
  check_int "36 kernels, 7 examples, 200 fuzz seeds, 1 hand-built" (36 + 7 + 200 + 1)
    (List.length corpus);
  (* lowered functions number registers virtually, compiled ones
     physically *)
  let run ~what f =
    same_analyses ~what f;
    same_analyses ~what:(what ^ "+island") (with_island f);
    same_analyses ~liveness:false ~what:(what ^ "+misordered") (misordered f)
  in
  List.iter
    (fun (name, prog) ->
      run ~what:(name ^ "/source") prog.Prog.func;
      List.iter
        (fun (s : Scheme.t) ->
          run ~what:(name ^ "/" ^ s.Scheme.name) (compiled s prog).Prog.func)
        schemes)
    corpus

(* The trace loop allocates only what a trace must hold: per dynamic
   instance, the events of loads and stores (they carry an address), and
   a memory page on the first write to it. *)
let test_trace_alloc_budget () =
  List.iter
    (fun name ->
      let prog = (List.hd (Suite.find_by_name name)).Suite.build ~scale:1 in
      List.iter
        (fun (s : Scheme.t) ->
          let c = compiled s prog in
          let before = Gc.minor_words () in
          let t, _ = Interp.trace_run ~fuel:20_000 c in
          let per_event = (Gc.minor_words () -. before) /. float_of_int (Trace.length t) in
          if per_event > 12. then
            Alcotest.failf "%s/%s: %.1f words per trace event (budget 12)" name
              s.Scheme.name per_event)
        schemes)
    [ "libquan"; "mcf"; "radix" ]

(* ------------------------------------------------------------------ *)
(* QCheck properties. *)

let prop_eval_add_sub_inverse =
  QCheck.Test.make ~name:"binop: (a+b)-b = a" ~count:200
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      Instr.eval_binop Instr.Sub (Instr.eval_binop Instr.Add a b) b = a)

let prop_eval_cmp_total_order =
  QCheck.Test.make ~name:"cmp: lt/eq/gt partition" ~count:200
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      Instr.eval_cmp Instr.Lt a b + Instr.eval_cmp Instr.Eq a b
      + Instr.eval_cmp Instr.Gt a b
      = 1)

let prop_rename_compose =
  QCheck.Test.make ~name:"rename composes" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (x, y) ->
      let i = Instr.Binop (Instr.Add, 1, 2, Instr.Reg 3) in
      let f r = r + x and g r = r + y in
      Instr.equal
        (Instr.rename f (Instr.rename g i))
        (Instr.rename (fun r -> f (g r)) i))

let prop_interp_sum_closed_form =
  QCheck.Test.make ~name:"interp: sum loop matches closed form" ~count:30
    QCheck.(int_range 1 60)
    (fun n ->
      let prog, out = sum_prog n in
      Interp.get_mem (Interp.run prog) out = n * (n - 1) / 2)

let prop_trace_instr_count_matches_rerun =
  QCheck.Test.make ~name:"trace is deterministic" ~count:20
    QCheck.(int_range 1 40)
    (fun n ->
      let prog, _ = sum_prog n in
      let t1, _ = Interp.trace_run prog in
      let t2, _ = Interp.trace_run prog in
      Trace.length t1 = Trace.length t2)

(* Mem against a hash-table model. Random sequences of writes, reads,
   snapshots (forks nothing writes afterwards) and forks run over data,
   spill and checkpoint words, unaligned, negative and far addresses.
   Every memory has its own model table, so a write that leaks through a
   shared page into a snapshot or a sibling fork, or back, reads wrong.
   Comparisons are checked against the hash-table loops the paged memory
   replaced. *)

type mem_op =
  | Set of int * int * int (* memory, address index, value *)
  | Get of int * int
  | Snapshot of int
  | Fork of int
  | Diff of int * int * int * int (* memories, [lo], [hi] bound indices *)

let mem_addrs =
  let word base k = base + (k * Layout.word) in
  Array.of_list
    (List.init 24 (fun k -> word Layout.data_base (k * 67))
    @ [ word Layout.data_base ((1 lsl 21) - 1); word Layout.data_base (1 lsl 21);
        Layout.spill_base - Layout.word ]
    @ List.map (word Layout.spill_base) [ 0; 1; 10; 300 ]
    @ List.map (word Layout.ckpt_base) [ 0; 1; 4; 113; 600; 1 lsl 22 ]
    @ [ Layout.data_base + 3; Layout.spill_base + 1; Layout.ckpt_base + 7;
        Layout.data_base - Layout.word; 0; 8; -8; -1; 1 lsl 50; -(1 lsl 50);
        (1 lsl 50) + 4; max_int; min_int ])

let mem_bounds =
  [| min_int; -8; Layout.data_base; Layout.data_base + (700 * Layout.word);
     Layout.spill_base; Layout.ckpt_base; Layout.ckpt_base + (4 * Layout.word); max_int |]

let show_mem_op = function
  | Set (m, a, v) -> Printf.sprintf "set m%d %#x %d" m mem_addrs.(a) v
  | Get (m, a) -> Printf.sprintf "get m%d %#x" m mem_addrs.(a)
  | Snapshot m -> Printf.sprintf "snapshot m%d" m
  | Fork m -> Printf.sprintf "fork m%d" m
  | Diff (m, m', lo, hi) ->
    Printf.sprintf "diff m%d m%d [%#x, %#x)" m m' mem_bounds.(lo) mem_bounds.(hi)

let mem_ops =
  let open QCheck.Gen in
  let addr = int_bound (Array.length mem_addrs - 1)
  and bound = int_bound (Array.length mem_bounds - 1)
  and value = oneof [ small_signed_int; oneofl [ 0; max_int; min_int ] ] in
  let op =
    frequency
      [
        (8, map3 (fun m a v -> Set (m, a, v)) small_nat addr value);
        (3, map2 (fun m a -> Get (m, a)) small_nat addr);
        (1, map (fun m -> Snapshot m) small_nat);
        (1, map (fun m -> Fork m) small_nat);
        ( 2,
          map2
            (fun (m, m') (lo, hi) -> Diff (m, m', lo, hi))
            (pair small_nat small_nat) (pair bound bound) );
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 80) op)

let find0 tbl a = Option.value (Hashtbl.find_opt tbl a) ~default:0

(* The oracles: the table loops the convergence test and the verifier
   ran before memory was paged. Equality treats absent bindings as
   zero, skipping some addresses. *)
let tables_agree ~skip a b =
  let covered a b = Hashtbl.fold (fun k v ok -> ok && (skip k || find0 b k = v)) a true in
  covered a b && covered b a

(* The lowest address, among those [keep] admits, whose values differ. *)
let tables_first_diff ~keep a b =
  let best = ref None in
  let check a b =
    Hashtbl.iter
      (fun k v ->
        if keep k && v <> find0 b k then
          match !best with Some x when x <= k -> () | Some _ | None -> best := Some k)
      a
  in
  check a b;
  check b a;
  !best

let prop_mem_matches_model =
  QCheck.Test.make ~name:"mem: paged copy-on-write = hash-table model" ~count:300 mem_ops
    (fun ops ->
      (* (memory, model, written after creation) *)
      let mems = ref [| (Mem.create (), Hashtbl.create 16, true) |] in
      let pick m = !mems.(m mod Array.length !mems) in
      let writable m =
        let ws = List.filter (fun (_, _, w) -> w) (Array.to_list !mems) in
        List.nth ws (m mod List.length ws)
      in
      let agree (mem, model, _) a = Mem.get mem a = find0 model a in
      let run = function
        | Set (m, a, v) ->
          let mem, model, _ = writable m in
          Mem.set mem mem_addrs.(a) v;
          Hashtbl.replace model mem_addrs.(a) v;
          true
        | Get (m, a) -> agree (pick m) mem_addrs.(a)
        | (Snapshot m | Fork m) as op ->
          let mem, model, _ = pick m in
          let w = match op with Fork _ -> true | _ -> false in
          mems := Array.append !mems [| (Mem.fork mem, Hashtbl.copy model, w) |];
          true
        | Diff (m, m', lo, hi) ->
          let a, ta, _ = pick m and b, tb, _ = pick m' in
          let lo = mem_bounds.(lo) and hi = mem_bounds.(hi) in
          let data k = k >= Layout.data_base && k < Layout.spill_base in
          (Mem.first_diff ~hi:Layout.ckpt_base a b = None)
          = tables_agree ~skip:Layout.is_ckpt_addr ta tb
          && Mem.first_diff ~lo:Layout.data_base ~hi:Layout.spill_base a b
             = tables_first_diff ~keep:data ta tb
          && Mem.first_diff ~lo ~hi a b = tables_first_diff ~keep:(fun k -> k >= lo && k < hi) ta tb
          && Mem.first_diff a b = tables_first_diff ~keep:(fun _ -> true) ta tb
      in
      List.for_all run ops
      && Array.for_all
           (fun ((mem, model, _) as m) ->
             Array.for_all (agree m) mem_addrs
             && Mem.bindings mem
                = List.sort compare
                    (Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) model []))
           !mems)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_eval_add_sub_inverse; prop_eval_cmp_total_order; prop_rename_compose;
      prop_interp_sum_closed_form; prop_trace_instr_count_matches_rerun;
      prop_mem_matches_model ]

let tests =
  [
    ("reg classification", `Quick, test_reg_classification);
    ("reg invalid args", `Quick, test_reg_invalid);
    ("layout slots", `Quick, test_layout_slots);
    ("instr defs/uses", `Quick, test_instr_defs_uses);
    ("instr classes", `Quick, test_instr_classes);
    ("instr eval", `Quick, test_instr_eval);
    ("instr rename", `Quick, test_instr_rename);
    ("block successors", `Quick, test_block_successors);
    ("block counts", `Quick, test_block_counts);
    ("func validate", `Quick, test_func_validate);
    ("func duplicate label", `Quick, test_func_duplicate_label);
    ("func copy is deep", `Quick, test_func_copy_independent);
    ("func add_block/fallthrough", `Quick, test_func_add_block_and_fallthrough);
    ("cfg preds and rpo", `Quick, test_cfg_preds_rpo);
    ("cfg unreachable block", `Quick, test_cfg_unreachable);
    ("dominance diamond", `Quick, test_dominance_diamond);
    ("loops simple", `Quick, test_loops_simple);
    ("loops nested", `Quick, test_loops_nested);
    ("liveness loop-carried", `Quick, test_liveness_loop);
    ("liveness per instruction", `Quick, test_liveness_per_instruction);
    ("builder implicit fallthrough", `Quick, test_builder_implicit_fallthrough);
    ("builder error handling", `Quick, test_builder_errors);
    ("interp sum", `Quick, test_interp_sum);
    ("interp diamond", `Quick, test_interp_diamond);
    ("interp zero register", `Quick, test_interp_zero_reg);
    ("interp out of fuel", `Quick, test_interp_out_of_fuel);
    ("interp ckpt default slot", `Quick, test_interp_ckpt_default);
    ("trace counts", `Quick, test_trace_counts);
    ("trace fallthrough branches", `Quick, test_trace_fallthrough_branches);
    ("interp mem equality", `Quick, test_interp_mem_equal);
    ("interp = reference on suite kernels", `Quick, test_reference_suite);
    ("interp = reference on fuzzed programs", `Quick, test_reference_fuzz);
    ("interp = reference at trace chunk boundaries", `Quick, test_reference_chunk_boundaries);
    ("interp trace allocation budget", `Quick, test_trace_alloc_budget);
    ("analyses = reference on kernels, examples, fuzz", `Quick,
      test_analyses_match_reference);
  ]
  @ qcheck
