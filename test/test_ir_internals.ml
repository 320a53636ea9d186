(* Micro-unit coverage for IR internals that the larger integration paths
   exercise only implicitly: terminator renaming, back-edge candidates,
   dominance over unreachable blocks, loop membership queries, block
   utilities, and interpreter step-level behaviour. *)

open Turnpike_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_block_rename_term () =
  let b = Block.create ~term:(Block.Branch (3, "a", "bb")) "x" in
  Block.rename_term (fun r -> r + 10) b;
  (match b.Block.term with
  | Block.Branch (13, "a", "bb") -> ()
  | _ -> Alcotest.fail "terminator not renamed");
  let j = Block.create ~term:(Block.Jump "a") "y" in
  Block.rename_term (fun _ -> 99) j;
  check "jump unaffected" true (j.Block.term = Block.Jump "a")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_block_to_string () =
  let b =
    Block.create ~body:[| Instr.Mov (1, Instr.Imm 5) |]
      ~term:(Block.Branch (1, "t", "f")) "blk"
  in
  let s = Block.to_string b in
  check "label present" true (String.length s > 0 && String.sub s 0 4 = "blk:");
  check "branch printed" true (contains ~sub:"br r1, t, f" s);
  check "mov printed" true (contains ~sub:"mov r1, 5" s)

let test_cfg_back_edge_candidate () =
  let f =
    Func.create ~name:"f" ~entry:"a"
      [ Block.create ~term:(Block.Jump "b") "a";
        Block.create ~term:(Block.Branch (1, "b", "c")) "b";
        Block.create "c" ]
  in
  let cfg = Cfg.build f in
  check "self edge is retreating" true (Cfg.is_back_edge_candidate cfg ~src:"b" ~dst:"b");
  check "forward edge is not" false (Cfg.is_back_edge_candidate cfg ~src:"a" ~dst:"b");
  check "postorder reverses rpo" true
    (List.rev (Cfg.postorder cfg) = Cfg.reverse_postorder cfg)

let test_dominance_unreachable () =
  let f =
    Func.create ~name:"f" ~entry:"a" [ Block.create "a"; Block.create "island" ]
  in
  let cfg = Cfg.build f in
  let dom = Dominance.compute cfg in
  check "nothing dominates unreachable" false
    (Dominance.dominates dom ~dom:"a" ~sub:"island");
  Alcotest.(check (list string)) "no dominators" [] (Dominance.dominators dom "island")

let test_loop_membership_queries () =
  let b = Builder.create "l" in
  Builder.label b "entry";
  let i = Builder.fresh_reg b in
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "h";
  Builder.label b "h";
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm 4);
  Builder.branch b ~cond:c ~if_true:"h" ~if_false:"e";
  Builder.label b "e";
  Builder.ret b;
  let prog = Builder.finish b in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  check "header in its own loop" true (Loop_info.in_loop loops ~header:"h" ~block:"h");
  check "exit outside" false (Loop_info.in_loop loops ~header:"h" ~block:"e");
  check "unknown header" false (Loop_info.in_loop loops ~header:"zz" ~block:"h");
  (match Loop_info.innermost_loop loops "h" with
  | Some lp -> Alcotest.(check string) "innermost is h" "h" lp.Loop_info.header
  | None -> Alcotest.fail "header has no loop");
  check "no loop for exit" true (Loop_info.innermost_loop loops "e" = None)

let test_interp_step_granularity () =
  let b = Builder.create "s" in
  Builder.label b "entry";
  let r = Builder.fresh_reg b in
  Builder.mov b ~dst:r (Imm 1);
  Builder.add b ~dst:r ~a:r (Imm 2);
  Builder.ret b;
  let prog = Builder.finish b in
  let code = Interp.decode prog and st = Interp.init prog in
  let step () = Interp.step Interp.no_hooks code st in
  step ();
  check_int "after one step" 1 (Interp.get_reg st r);
  step ();
  check_int "after two steps" 3 (Interp.get_reg st r);
  check "not yet halted" false st.Interp.halted;
  step () (* terminator *);
  check "halted at ret" true st.Interp.halted;
  let steps = st.Interp.steps in
  step ();
  check_int "step after halt is a no-op" steps st.Interp.steps

let test_interp_hooks_see_writes () =
  let seen = ref [] in
  let hooks =
    { Interp.no_hooks with Interp.write_mem = (fun st a v ->
          seen := (a, v) :: !seen;
          Interp.set_mem st a v) }
  in
  let b = Builder.create "w" in
  Builder.label b "entry";
  let base = Builder.fresh_reg b and v = Builder.fresh_reg b in
  Builder.mov b ~dst:base (Imm Layout.data_base);
  Builder.mov b ~dst:v (Imm 77);
  Builder.store b ~src:v ~base ();
  Builder.ret b;
  let prog = Builder.finish b in
  ignore (Interp.run ~hooks prog);
  Alcotest.(check (list (pair int int))) "write observed" [ (Layout.data_base, 77) ] !seen

let test_instr_to_string_forms () =
  Alcotest.(check string) "spill load" "ld.spill r1, [rz, #8]"
    (Instr.to_string (Instr.Load (1, Reg.zero, 8, Instr.Spill_mem)));
  Alcotest.(check string) "ckpt" "ckpt r5" (Instr.to_string (Instr.Ckpt 5));
  Alcotest.(check string) "boundary" "--- region 3 ---" (Instr.to_string (Instr.Boundary 3));
  Alcotest.(check string) "cmp" "cmplt r1, r2, 9"
    (Instr.to_string (Instr.Cmp (Instr.Lt, 1, 2, Instr.Imm 9)))

let tests =
  [
    ("block rename_term", `Quick, test_block_rename_term);
    ("block to_string", `Quick, test_block_to_string);
    ("cfg back-edge candidates", `Quick, test_cfg_back_edge_candidate);
    ("dominance over unreachable", `Quick, test_dominance_unreachable);
    ("loop membership queries", `Quick, test_loop_membership_queries);
    ("interp step granularity", `Quick, test_interp_step_granularity);
    ("interp write hooks", `Quick, test_interp_hooks_see_writes);
    ("instr printing forms", `Quick, test_instr_to_string_forms);
  ]
