(* Tests for recovery-block code generation: the emitted IR, executed on a
   machine state whose checkpoint slots are populated, must restore exactly
   the register values the resilience engine's restore path computes. *)

open Turnpike_ir
open Turnpike_compiler
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compiled_of name =
  let b = List.hd (Suite.find_by_name name) in
  let prog = b.Suite.build ~scale:1 in
  Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog

(* Execute a recovery block's straight-line body over a state. *)
let exec_block st (blk : Recovery_codegen.block) =
  List.iter (Interp.exec_instr Interp.no_hooks st) blk.Recovery_codegen.body

let test_blocks_cover_all_regions () =
  let c = compiled_of "libquan" in
  let blocks = Recovery_codegen.generate ~compiled:c ~nregs:32 in
  check_int "one block per region" (Array.length c.Pass_pipeline.regions)
    (List.length blocks);
  List.iter
    (fun (blk : Recovery_codegen.block) ->
      match Pass_pipeline.region_info c blk.Recovery_codegen.region with
      | Some info ->
        Alcotest.(check string)
          "recovery pc is the region head" info.Pass_pipeline.head
          blk.Recovery_codegen.recovery_pc
      | None -> Alcotest.fail "dangling region id")
    blocks

let test_plain_restores_are_slot_loads () =
  let c = compiled_of "mcf" in
  let blocks = Recovery_codegen.generate ~compiled:c ~nregs:32 in
  List.iter
    (fun (blk : Recovery_codegen.block) ->
      List.iter
        (fun i ->
          match i with
          | Instr.Load (_, base, _, Instr.Ckpt_mem) ->
            check "slot loads are absolute" true (Reg.is_zero base)
          | Instr.Load (_, base, _, Instr.Spill_mem) ->
            check "scratch loads are absolute" true (Reg.is_zero base)
          | _ -> ())
        blk.Recovery_codegen.body)
    blocks

(* The equivalence test: populate checkpoint slots from a real run, then
   compare (a) executing the emitted block against (b) the expression
   evaluator the engine uses. *)
let test_codegen_matches_expression_eval name =
  let c = compiled_of name in
  let final = Interp.run ~fuel:5_000_000 c.Pass_pipeline.prog in
  let blocks = Recovery_codegen.generate ~compiled:c ~nregs:32 in
  List.iter
    (fun (blk : Recovery_codegen.block) ->
      match Pass_pipeline.region_info c blk.Recovery_codegen.region with
      | None -> ()
      | Some info ->
        (* (a) run the block on a scratch state over a fork of the final
           memory. *)
        let st =
          {
            Interp.regs = [||];
            mem = Mem.fork final.Interp.mem;
            block = 0;
            index = 0;
            steps = 0;
            halted = false;
          }
        in
        exec_block st blk;
        (* (b) engine-style restore: slot read or expression eval. *)
        let read_slot r = Interp.get_mem final (Layout.ckpt_slot ~reg:r ~color:0) in
        List.iter
          (fun reg ->
            let expected =
              match Hashtbl.find_opt c.Pass_pipeline.recovery_exprs reg with
              | Some e -> Recovery_expr.eval ~read_slot e
              | None -> read_slot reg
            in
            check_int
              (Printf.sprintf "%s region %d %s" name blk.Recovery_codegen.region
                 (Reg.to_string reg))
              expected (Interp.get_reg st reg))
          info.Pass_pipeline.live_in)
    blocks

let test_codegen_equivalence_stream () = test_codegen_matches_expression_eval "libquan"
let test_codegen_equivalence_stencil () = test_codegen_matches_expression_eval "bwaves"
let test_codegen_equivalence_diamond () = test_codegen_matches_expression_eval "astar"
let test_codegen_equivalence_matmul () = test_codegen_matches_expression_eval "cholesky"

let test_select_lowering_direct () =
  (* Lower a Select directly and execute both outcomes. *)
  let mk cond =
    Recovery_expr.Select
      (Recovery_expr.Const cond, Recovery_expr.Const 111, Recovery_expr.Const 222)
  in
  let run expr =
    let compiled =
      (* Tiny synthetic compiled value: one region, one pruned register. *)
      let b = Builder.create "sel" in
      Builder.label b "entry";
      Builder.nop b;
      Builder.ret b;
      let prog = Builder.finish b in
      Pass_pipeline.compile ~opts:Pass_pipeline.turnstile_opts prog
    in
    Hashtbl.replace compiled.Pass_pipeline.recovery_exprs 5 expr;
    let blocks =
      Recovery_codegen.generate
        ~compiled:
          {
            compiled with
            Pass_pipeline.regions =
              [| { Pass_pipeline.id = 0; head = "entry"; live_in = [ 5 ] } |];
          }
        ~nregs:32
    in
    let st = Interp.init (Prog.create (Func.create ~name:"empty" ~entry:"e" [ Turnpike_ir.Block.create "e" ])) in
    exec_block st (List.hd blocks);
    Interp.get_reg st 5
  in
  check_int "select true arm" 111 (run (mk 1));
  check_int "select false arm" 222 (run (mk 0))

let test_recovery_code_size_reasonable () =
  (* The recovery metadata exists off the hot path, but its size matters
     for the paper's code-size story: it should stay within a small
     multiple of the region count. *)
  let c = compiled_of "soplex" in
  let blocks = Recovery_codegen.generate ~compiled:c ~nregs:32 in
  let sz = Recovery_codegen.size blocks in
  check "non-empty" true (sz > 0);
  check "bounded" true (sz < 64 * List.length blocks)

(* Random reconstruction expressions: executing the lowered code must agree
   with the expression evaluator for any tree shape, including nested
   selects — the lowering is a tiny compiler and this is its oracle. *)
let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun c -> Recovery_expr.Const (c - 50)) (int_bound 100);
        map (fun r -> Recovery_expr.Slot (1 + (r mod 8))) (int_bound 7) ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 2,
            map3
              (fun op a b -> Recovery_expr.Op (op, a, b))
              (oneofl Turnpike_ir.Instr.[ Add; Sub; Mul; And; Or; Xor ])
              (tree (depth - 1)) (tree (depth - 1)) );
          ( 1,
            map3
              (fun c a b -> Recovery_expr.Cmp (c, a, b))
              (oneofl Turnpike_ir.Instr.[ Eq; Ne; Lt; Ge ])
              (tree (depth - 1)) (tree (depth - 1)) );
          ( 1,
            map3
              (fun c a b -> Recovery_expr.Select (c, a, b))
              (tree (depth - 1)) (tree (depth - 1)) (tree (depth - 1)) ) ]
  in
  tree 3

let prop_lowering_matches_eval =
  QCheck.Test.make ~name:"lowered recovery code = expression evaluator" ~count:200
    (QCheck.make expr_gen)
    (fun expr ->
      (* Populate slots 1..8 with arbitrary-ish deterministic values. *)
      let st =
        {
          Interp.regs = [||];
          mem = Mem.create ();
          block = 0;
          index = 0;
          steps = 0;
          halted = false;
        }
      in
      for r = 1 to 8 do
        Interp.set_mem st (Layout.ckpt_slot ~reg:r ~color:0) ((r * 37) - 100)
      done;
      let read_slot r = Interp.get_mem st (Layout.ckpt_slot ~reg:r ~color:0) in
      let expected = Recovery_expr.eval ~read_slot expr in
      (* Lower through the same path generate uses. *)
      let code =
        let module RC = Recovery_codegen in
        let compiled =
          let b = Builder.create "p" in
          Builder.label b "entry";
          Builder.nop b;
          Builder.ret b;
          Pass_pipeline.compile ~opts:Pass_pipeline.turnstile_opts (Builder.finish b)
        in
        Hashtbl.replace compiled.Pass_pipeline.recovery_exprs 9 expr;
        let blocks =
          RC.generate
            ~compiled:
              {
                compiled with
                Pass_pipeline.regions =
                  [| { Pass_pipeline.id = 0; head = "entry"; live_in = [ 9 ] } |];
              }
            ~nregs:32
        in
        (List.hd blocks).RC.body
      in
      List.iter (Interp.exec_instr Interp.no_hooks st) code;
      Interp.get_reg st 9 = expected)

let qcheck = [ QCheck_alcotest.to_alcotest prop_lowering_matches_eval ]

let tests =
  qcheck
  @ [
    ("blocks cover all regions", `Quick, test_blocks_cover_all_regions);
    ("restores are absolute slot loads", `Quick, test_plain_restores_are_slot_loads);
    ("codegen = engine (stream)", `Quick, test_codegen_equivalence_stream);
    ("codegen = engine (stencil/pruned)", `Quick, test_codegen_equivalence_stencil);
    ("codegen = engine (diamond select)", `Quick, test_codegen_equivalence_diamond);
    ("codegen = engine (matmul)", `Quick, test_codegen_equivalence_matmul);
    ("select lowering direct", `Quick, test_select_lowering_direct);
    ("recovery code size reasonable", `Quick, test_recovery_code_size_reasonable);
  ]
