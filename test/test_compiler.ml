(* Tests for the compiler passes. The load-bearing invariant everywhere is
   SEMANTIC PRESERVATION: every pass (and every full pipeline config) must
   leave the program's observable output — its application data segment —
   identical to the un-instrumented baseline. *)

open Turnpike_ir
open Turnpike_compiler
module Suite = Turnpike_workloads.Suite
module Templates = Turnpike_workloads.Templates

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Observable output equality on the application data segment. *)
let same_output p1 p2 =
  let s1 = Interp.run ~fuel:5_000_000 p1 and s2 = Interp.run ~fuel:5_000_000 p2 in
  Mem.first_diff ~lo:Layout.data_base ~hi:Layout.spill_base s1.Interp.mem s2.Interp.mem
  = None

let bench name = List.hd (Suite.find_by_name name)

let small_prog name = (bench name).Suite.build ~scale:1

(* ------------------------------------------------------------------ *)
(* Regions *)

let compile_turnstile ?(sb = 4) prog =
  Pass_pipeline.compile
    ~opts:{ Pass_pipeline.turnstile_opts with Pass_pipeline.sb_size = sb }
    prog

let test_partition_boundary_invariants () =
  let prog = small_prog "libquan" in
  let c = compile_turnstile prog in
  let f = c.Pass_pipeline.prog.Prog.func in
  let cfg = Cfg.build f in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  (* Every loop header and join block starts with a boundary. *)
  Func.iter_blocks
    (fun b ->
      let is_head =
        Array.length b.Block.body > 0 && Instr.is_boundary b.Block.body.(0)
      in
      let preds = Cfg.predecessors cfg b.Block.label in
      if Loop_info.is_header loops b.Block.label then
        check (b.Block.label ^ " header has boundary") true is_head;
      if List.length preds >= 2 then
        check (b.Block.label ^ " join has boundary") true is_head;
      (* No boundary anywhere except position 0. *)
      Array.iteri
        (fun i ins ->
          if i > 0 then check "boundary only at block start" false (Instr.is_boundary ins))
        b.Block.body)
    f;
  (* Entry starts region 0. *)
  match (Func.entry_block f).Block.body.(0) with
  | Instr.Boundary 0 -> ()
  | _ -> Alcotest.fail "entry must start region 0"

let test_partition_budget_respected () =
  List.iter
    (fun name ->
      let prog = small_prog name in
      let c = compile_turnstile prog in
      let f = c.Pass_pipeline.prog.Prog.func in
      let regions = Regions.of_func f in
      (* The hard requirement: no region path exceeds the SB size. *)
      check
        (name ^ " worst path within SB")
        true
        (Regions.worst_region_path f regions <= 4))
    [ "libquan"; "mcf"; "gcc"; "hmmer"; "lbm"; "astar"; "cholesky"; "radix" ]

let test_partition_larger_sb_fewer_regions () =
  let prog = small_prog "libquan" in
  let r4 = (compile_turnstile ~sb:4 prog).Pass_pipeline.stats.Static_stats.regions in
  let r40 = (compile_turnstile ~sb:40 prog).Pass_pipeline.stats.Static_stats.regions in
  check "sb40 has no more regions than sb4" true (r40 <= r4)

let test_regions_of_func_roundtrip () =
  let prog = small_prog "soplex" in
  let c = compile_turnstile prog in
  let f = c.Pass_pipeline.prog.Prog.func in
  let regions = Regions.of_func f in
  (* Every block belongs to exactly one region; heads map to themselves. *)
  Func.iter_blocks
    (fun b ->
      match Regions.region_of regions b.Block.label with
      | None -> Alcotest.fail ("unassigned block " ^ b.Block.label)
      | Some id -> (
        match Regions.region regions id with
        | None -> Alcotest.fail "dangling region id"
        | Some r -> check "membership recorded" true (List.mem b.Block.label r.Regions.blocks)))
    f

let test_partition_preserves_semantics () =
  List.iter
    (fun name ->
      let prog = small_prog name in
      let c = compile_turnstile prog in
      check (name ^ " output preserved") true (same_output prog c.Pass_pipeline.prog))
    [ "libquan"; "mcf"; "bzip2"; "gobmk" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint insertion *)

let test_ckpt_live_out_covered () =
  (* For every region, a register defined inside it and live at a region
     exit must have a checkpoint after its last def (eager checkpointing,
     paper §2.2). We verify on the flagship example of Fig 1: the loop
     counter and accumulator of a simple loop get per-iteration ckpts. *)
  let prog = small_prog "libquan" in
  let c = compile_turnstile prog in
  let f = c.Pass_pipeline.prog.Prog.func in
  check "has checkpoints" true (Checkpoint.count f > 0);
  (* Strip + reinsert is stable (idempotent up to count). *)
  let before = Checkpoint.count f in
  ignore (Checkpoint.strip f);
  check_int "strip removes all" 0 (Checkpoint.count f);
  let _, inserted = Checkpoint.insert ~cfg:(Cfg.build f) f in
  check_int "reinsert same count" before inserted

(* A program whose input register is live into a join region, so the
   entry region must checkpoint it. *)
let input_into_join_prog () =
  let b = Builder.create "inp" in
  Builder.label b "entry";
  let x = Builder.input_reg b 42 in
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b and c = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  Builder.cmp b Instr.Gt ~dst:c ~a:x (Imm 0);
  Builder.branch b ~cond:c ~if_true:"a" ~if_false:"bb";
  Builder.label b "a";
  Builder.nop b;
  Builder.jump b "fin";
  Builder.label b "bb";
  Builder.nop b;
  Builder.jump b "fin";
  Builder.label b "fin";
  (* fin is a join: its own region; x is live into it. *)
  Builder.store b ~src:x ~base:ob ();
  Builder.ret b;
  Builder.finish b

let test_ckpt_inputs_checkpointed () =
  (* Program inputs live into later regions are checkpointed at entry. *)
  let prog = input_into_join_prog () in
  let c = compile_turnstile prog in
  check "some checkpoint exists" true (Checkpoint.count c.Pass_pipeline.prog.Prog.func >= 1);
  check "output preserved" true (same_output prog c.Pass_pipeline.prog)

let test_ckpt_more_with_small_sb () =
  (* Paper Fig 4: shrinking the SB increases checkpoints. *)
  let prog = small_prog "gcc" in
  let c4 = compile_turnstile ~sb:4 prog in
  let c40 = compile_turnstile ~sb:40 prog in
  check "sb4 >= sb40 ckpts" true
    (c4.Pass_pipeline.stats.Static_stats.ckpts_inserted
    >= c40.Pass_pipeline.stats.Static_stats.ckpts_inserted)

(* ------------------------------------------------------------------ *)
(* Register allocation *)

let test_regalloc_eliminates_virtuals () =
  let prog = small_prog "hmmer" in
  let f = Func.copy prog.Prog.func in
  let r = Regalloc.run f in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          List.iter
            (fun x -> check "no virtual defs" false (Reg.is_virtual x))
            (Instr.defs i);
          List.iter
            (fun x -> check "no virtual uses" false (Reg.is_virtual x))
            (Instr.uses i))
        b.Block.body;
      List.iter
        (fun x -> check "no virtual in terms" false (Reg.is_virtual x))
        (Block.term_uses b))
    r.Regalloc.func

let test_regalloc_preserves_semantics () =
  List.iter
    (fun name ->
      let prog = small_prog name in
      let f = Func.copy prog.Prog.func in
      let r = Regalloc.run f in
      let reg_init, extra = Regalloc.remap_inputs r prog.Prog.reg_init in
      let prog' =
        { Prog.func = r.Regalloc.func; reg_init;
          mem_init = prog.Prog.mem_init @ extra }
      in
      check (name ^ " RA preserves output") true (same_output prog prog'))
    [ "libquan"; "gcc"; "water-sp"; "cholesky"; "xalan" ]

let test_regalloc_spills_under_pressure () =
  (* gcc proxy has 34 live accumulators against ~28 allocatable regs. *)
  let prog = small_prog "gcc" in
  let r = Regalloc.run (Func.copy prog.Prog.func) in
  check "spills happen" true (r.Regalloc.spilled_vregs > 0);
  check "spill code emitted" true (r.Regalloc.spill_stores > 0 && r.Regalloc.spill_loads > 0)

let test_regalloc_no_spill_when_room () =
  let prog = small_prog "libquan" in
  let r = Regalloc.run (Func.copy prog.Prog.func) in
  check_int "no spills for small kernels" 0 r.Regalloc.spilled_vregs

let test_store_aware_reduces_spill_stores () =
  (* Paper §4.1.1: raising the write cost keeps frequently-written
     variables in registers, reducing dynamic spill stores. *)
  let prog = small_prog "gcc" in
  let count_spill_stores store_aware =
    let f = Func.copy prog.Prog.func in
    let r = Regalloc.run ~config:{ Regalloc.default_config with store_aware } f in
    let reg_init, extra = Regalloc.remap_inputs r prog.Prog.reg_init in
    let p = { Prog.func = r.Regalloc.func; reg_init;
              mem_init = prog.Prog.mem_init @ extra } in
    let trace, _ = Interp.trace_run ~fuel:400_000 p in
    Trace.count
      (function Trace.Store { cls = Trace.Regular_spill; _ } -> true | _ -> false)
      trace
  in
  let plain = count_spill_stores false and aware = count_spill_stores true in
  check "store-aware emits fewer dynamic spill stores" true (aware <= plain)

let test_regalloc_location_queries () =
  let prog = small_prog "gcc" in
  let r = Regalloc.run (Func.copy prog.Prog.func) in
  (* Every input register must have a location. *)
  List.iter
    (fun (reg, _) ->
      match Regalloc.location_of r reg with
      | Some _ -> ()
      | None -> Alcotest.fail "input register lost by allocation")
    prog.Prog.reg_init

(* ------------------------------------------------------------------ *)
(* Pruning *)

let test_pruning_removes_and_preserves () =
  let prog = small_prog "libquan" in
  let c = compile_turnstile prog in
  let before = Checkpoint.count c.Pass_pipeline.prog.Prog.func in
  let r = Pruning.run c.Pass_pipeline.prog.Prog.func in
  check "pruned some" true (r.Pruning.pruned > 0);
  check_int "count matches" (before - r.Pruning.pruned) (Checkpoint.count r.Pruning.func);
  check "semantics preserved" true (same_output prog c.Pass_pipeline.prog)

let test_pruning_expressions_evaluate () =
  (* Every reconstruction expression must evaluate to the pruned
     register's actual final value when slots hold checkpointed values. *)
  let prog = small_prog "leslie3d" in
  let c = compile_turnstile prog in
  let r = Pruning.run c.Pass_pipeline.prog.Prog.func in
  let final = Interp.run ~fuel:5_000_000 c.Pass_pipeline.prog in
  Hashtbl.iter
    (fun reg expr ->
      (* Single-definition registers hold one value for the whole run, and
         operands' slots were written by the default interp hook. *)
      let read_slot s = Interp.get_mem final (Layout.ckpt_slot ~reg:s ~color:0) in
      let expect = Interp.get_reg final reg in
      check_int
        (Printf.sprintf "expr for %s" (Reg.to_string reg))
        expect
        (Recovery_expr.eval ~read_slot expr))
    r.Pruning.exprs

let test_pruning_diamond_pattern () =
  (* Paper Fig 9: a register checkpointed in both arms of a two-sided
     branch over a run-stable predicate is pruned on both sides, with a
     select over the reconstructed predicate as its recovery expression. *)
  let prog = Templates.branchy ~seed:7 ~iters:40 () in
  let c = compile_turnstile prog in
  let r = Pruning.run c.Pass_pipeline.prog.Prog.func in
  let has_select =
    Hashtbl.fold
      (fun _ e acc ->
        acc || match e with Recovery_expr.Select _ -> true | _ -> false)
      r.Pruning.exprs false
  in
  check "diamond produced a select" true has_select;
  check "pruned both arms" true (r.Pruning.pruned >= 2);
  check "semantics preserved" true (same_output prog c.Pass_pipeline.prog);
  (* The select evaluates to the mode value the taken arm produced. *)
  let final = Interp.run ~fuel:5_000_000 c.Pass_pipeline.prog in
  Hashtbl.iter
    (fun reg e ->
      match e with
      | Recovery_expr.Select _ ->
        let read_slot s = Interp.get_mem final (Layout.ckpt_slot ~reg:s ~color:0) in
        check_int "select reconstructs the live value"
          (Interp.get_reg final reg)
          (Recovery_expr.eval ~read_slot e)
      | _ -> ())
    r.Pruning.exprs

let test_pruning_never_prunes_inputs () =
  let prog = input_into_join_prog () in
  let c = compile_turnstile prog in
  let before = Checkpoint.count c.Pass_pipeline.prog.Prog.func in
  check "some checkpoint existed" true (before >= 1);
  ignore (Pruning.run c.Pass_pipeline.prog.Prog.func);
  (* The input register's checkpoint has no defining instruction, so it
     must survive; at most derived values disappear. *)
  check "input ckpt survives" true (Checkpoint.count c.Pass_pipeline.prog.Prog.func >= 1);
  (* And recovery still works: output preserved. *)
  check "output preserved" true (same_output prog c.Pass_pipeline.prog)

(* ------------------------------------------------------------------ *)
(* LICM sinking *)

let test_licm_sinks_flag_loop () =
  (* cactubssn is the flag_loop proxy: the per-iteration flag checkpoint
     sinks out of the loop (paper Fig 10). *)
  let prog = small_prog "cactubssn" in
  let c = compile_turnstile prog in
  let r = Licm_sink.run c.Pass_pipeline.prog.Prog.func in
  check "licm moved something" true (r.Licm_sink.moved > 0);
  check "semantics preserved" true (same_output prog c.Pass_pipeline.prog)

let test_licm_reduces_dynamic_ckpts () =
  let prog = small_prog "cactubssn" in
  let dyn scheme_opts =
    let c = Pass_pipeline.compile ~opts:scheme_opts prog in
    let t, _ = Interp.trace_run ~fuel:400_000 c.Pass_pipeline.prog in
    Trace.num_ckpts t
  in
  let without = dyn Pass_pipeline.turnstile_opts in
  let with_licm = dyn { Pass_pipeline.turnstile_opts with Pass_pipeline.licm = true } in
  check "licm reduces dynamic checkpoints" true (with_licm < without)

(* ------------------------------------------------------------------ *)
(* LIVM *)

let test_livm_merges_stream_ivs () =
  (* Pre-RA, the stream kernels carry one pointer IV per output array. *)
  let prog = small_prog "lbm" in
  let f = Func.copy prog.Prog.func in
  let r = Livm.run f in
  check "merged pointer IVs" true (r.Livm.merged >= 1)

let test_livm_preserves_semantics () =
  List.iter
    (fun name ->
      let prog = small_prog name in
      let f = Func.copy prog.Prog.func in
      let r = Livm.run f in
      let prog' = { prog with Prog.func = r.Livm.func } in
      check (name ^ " livm preserves output") true (same_output prog prog'))
    [ "libquan"; "lbm"; "exchange2"; "leela" ]

let test_livm_skips_load_base_ivs () =
  (* The profitability rule: pointer IVs feeding loads are not merged
     (recomputation would lengthen the load address path). *)
  let prog = small_prog "bzip2" in
  let f = Func.copy prog.Prog.func in
  let r = Livm.run f in
  check_int "no merge on load pointers" 0 r.Livm.merged

let test_livm_reduces_dynamic_ckpts () =
  let prog = small_prog "libquan" in
  let dyn opts =
    let c = Pass_pipeline.compile ~opts prog in
    let t, _ = Interp.trace_run ~fuel:400_000 c.Pass_pipeline.prog in
    Trace.num_ckpts t
  in
  let base = dyn Pass_pipeline.turnstile_opts in
  let livm = dyn { Pass_pipeline.turnstile_opts with Pass_pipeline.livm = true } in
  check "livm reduces dynamic checkpoints" true (livm < base)

(* ------------------------------------------------------------------ *)
(* Unrolling *)

let test_unroll_preserves_semantics () =
  List.iter
    (fun name ->
      let prog = small_prog name in
      let f = Func.copy prog.Prog.func in
      let r = Unroll.run ~factor:2 f in
      check (name ^ " unroll x2 preserves output") true
        (same_output prog { prog with Prog.func = r.Unroll.func }))
    [ "libquan"; "water-sp"; "milc"; "bzip2" ]

let test_unroll_fires_on_counted_loops () =
  let prog = small_prog "water-sp" in
  let f = Func.copy prog.Prog.func in
  let r = Unroll.run ~factor:2 f in
  check "unrolled the reduction loop" true (r.Unroll.unrolled >= 1)

let test_unroll_skips_indivisible_trip_counts () =
  (* 7 iterations cannot unroll by 2 exactly: the loop must be left
     alone. *)
  let prog = Templates.stream_store ~seed:3 ~iters:7 ~ways:1 () in
  let f = Func.copy prog.Prog.func in
  let r = Unroll.run ~factor:2 f in
  check_int "skipped" 0 r.Unroll.unrolled;
  check "still correct" true (same_output prog { prog with Prog.func = r.Unroll.func })

let test_unroll_factor_one_identity () =
  let prog = small_prog "libquan" in
  let before = Func.num_instrs prog.Prog.func in
  let f = Func.copy prog.Prog.func in
  let r = Unroll.run ~factor:1 f in
  check_int "identity" before (Func.num_instrs r.Unroll.func);
  Alcotest.check_raises "invalid factor" (Invalid_argument "Unroll.run: factor must be >= 1")
    (fun () -> ignore (Unroll.run ~factor:0 f))

let test_unroll_reduces_dynamic_ckpt_density () =
  (* The point of the ablation: unrolled code re-checkpoints loop-carried
     registers once per longer iteration. *)
  let prog = small_prog "water-sp" in
  let density opts =
    let c = Pass_pipeline.compile ~opts prog in
    let t, _ = Interp.trace_run ~fuel:400_000 c.Pass_pipeline.prog in
    float_of_int (Trace.num_ckpts t) /. float_of_int (Trace.num_instructions t)
  in
  let d1 = density Pass_pipeline.turnstile_opts in
  let d4 = density { Pass_pipeline.turnstile_opts with Pass_pipeline.unroll = 4 } in
  check "unrolling cuts checkpoint density" true (d4 < d1)

(* ------------------------------------------------------------------ *)
(* Scheduling *)

let test_sched_separates_and_preserves () =
  (* mcf's chased pointer is load-fed and checkpointed: the scheduler's
     target case. *)
  let prog = small_prog "mcf" in
  let c = compile_turnstile prog in
  let r = Scheduling.run c.Pass_pipeline.prog.Prog.func in
  check "moved some checkpoints" true (r.Scheduling.moved > 0);
  check "semantics preserved" true (same_output prog c.Pass_pipeline.prog)

let test_sched_separation_invariant () =
  (* After scheduling, every checkpoint with a multi-cycle (load/mul/div)
     producer is either >= separation slots from it or blocked by an
     impure instruction, a redefinition, or the block end. *)
  let sep = Scheduling.default_separation in
  let prog = small_prog "mcf" in
  let c = compile_turnstile prog in
  let f = c.Pass_pipeline.prog.Prog.func in
  ignore (Scheduling.run ~separation:sep f);
  Func.iter_blocks
    (fun b ->
      Array.iteri
        (fun i ins ->
          match ins with
          | Instr.Ckpt r ->
            let rec find_def j =
              if j < 0 then None
              else if List.mem r (Instr.defs b.Block.body.(j)) then
                Some (i - j, b.Block.body.(j))
              else find_def (j - 1)
            in
            let d, slow =
              match find_def (i - 1) with
              | Some (d, Instr.Load _) -> (d, true)
              | Some (d, Instr.Binop ((Instr.Mul | Instr.Div | Instr.Rem), _, _, _)) ->
                (d, true)
              | Some (d, _) -> (d, false)
              | None -> (max_int, false)
            in
            if d < sep && slow then begin
              (* Must be blocked: next slot is impure (boundary, memory op,
                 another checkpoint), a redefinition, or the block end. *)
              let blocked =
                i + 1 >= Array.length b.Block.body
                || (not (Instr.is_pure b.Block.body.(i + 1)))
                || List.mem r (Instr.defs b.Block.body.(i + 1))
              in
              check "close ckpt is blocked" true blocked
            end
          | _ -> ())
        b.Block.body)
    f

let test_sched_zero_separation_noop () =
  let prog = small_prog "mcf" in
  let c = compile_turnstile prog in
  let r = Scheduling.run ~separation:0 c.Pass_pipeline.prog.Prog.func in
  check_int "separation 0 moves nothing" 0 r.Scheduling.moved

(* ------------------------------------------------------------------ *)
(* Full pipeline *)

let test_pipeline_all_schemes_preserve_output () =
  (* The heavyweight integration invariant: every scheme's compiled binary
     computes the same application output as the source program. *)
  List.iter
    (fun name ->
      let prog = small_prog name in
      List.iter
        (fun (scheme : Turnpike.Scheme.t) ->
          let opts = Turnpike.Scheme.compile_opts scheme ~sb_size:4 in
          let c = Pass_pipeline.compile ~opts prog in
          check
            (Printf.sprintf "%s under %s" name scheme.Turnpike.Scheme.name)
            true
            (same_output prog c.Pass_pipeline.prog))
        (Turnpike.Scheme.baseline :: Turnpike.Scheme.ladder))
    [ "libquan"; "mcf"; "gcc"; "bzip2"; "cactubssn"; "radix"; "water-sp"; "cholesky" ]

let test_pipeline_region_infos_complete () =
  let prog = small_prog "soplex" in
  let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
  check "has regions" true (Array.length c.Pass_pipeline.regions > 0);
  Array.iter
    (fun (info : Pass_pipeline.region_info) ->
      match Pass_pipeline.region_info c info.Pass_pipeline.id with
      | Some info' -> check "lookup consistent" true (info == info' || info.Pass_pipeline.id = info'.Pass_pipeline.id)
      | None -> Alcotest.fail "region info lookup failed")
    c.Pass_pipeline.regions

let test_pipeline_baseline_has_no_markers () =
  let prog = small_prog "libquan" in
  let c = Pass_pipeline.compile ~opts:Pass_pipeline.baseline_opts prog in
  let f = c.Pass_pipeline.prog.Prog.func in
  check_int "no boundaries" 0
    (Func.fold_instrs (fun acc i -> if Instr.is_boundary i then acc + 1 else acc) 0 f);
  check_int "no ckpts" 0 (Checkpoint.count f)

let test_pipeline_input_not_mutated () =
  let prog = small_prog "libquan" in
  let before = Func.num_instrs prog.Prog.func in
  ignore (Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog);
  check_int "source program untouched" before (Func.num_instrs prog.Prog.func)

let test_pipeline_code_size_increase_positive () =
  let prog = small_prog "gcc" in
  let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnstile_opts prog in
  check "resilient code is bigger" true
    (Static_stats.code_size_increase c.Pass_pipeline.stats > 0.0)

(* ------------------------------------------------------------------ *)
(* QCheck: pipeline semantic preservation over random template params. *)

let prop_pipeline_preserves_random_streams =
  QCheck.Test.make ~name:"pipeline preserves random stream kernels" ~count:12
    QCheck.(triple (int_range 1 50) (int_range 8 60) (int_range 1 3))
    (fun (seed, iters, ways) ->
      let prog = Templates.stream_store ~seed ~iters ~ways () in
      let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
      same_output prog c.Pass_pipeline.prog)

let prop_pipeline_preserves_random_histograms =
  QCheck.Test.make ~name:"pipeline preserves random histograms" ~count:10
    QCheck.(pair (int_range 1 50) (int_range 8 60))
    (fun (seed, iters) ->
      let prog = Templates.histogram ~seed ~iters ~buckets:16 () in
      let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
      same_output prog c.Pass_pipeline.prog)

let prop_unroll_preserves_random_kernels =
  QCheck.Test.make ~name:"unroll preserves random kernels (any valid factor)" ~count:12
    QCheck.(triple (int_range 1 40) (int_range 1 15) (int_range 2 4))
    (fun (seed, blocks, factor) ->
      let iters = blocks * 12 in
      (* 12 is divisible by 2, 3 and 4, so every factor is exact. *)
      let prog = Templates.mixed ~seed ~iters () in
      let f = Func.copy prog.Prog.func in
      let r = Unroll.run ~factor f in
      r.Unroll.unrolled >= 1
      && same_output prog { prog with Prog.func = r.Unroll.func })

let prop_partition_hard_cap =
  QCheck.Test.make ~name:"partitioning respects the SB hard cap" ~count:10
    QCheck.(pair (int_range 1 30) (int_range 8 40))
    (fun (seed, iters) ->
      let prog = Templates.mixed ~seed ~iters () in
      let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnstile_opts prog in
      let f = c.Pass_pipeline.prog.Prog.func in
      Regions.worst_region_path f (Regions.of_func f) <= 4)

(* ------------------------------------------------------------------ *)
(* Codegen golden for programs nobody wrote by hand: one line per fuzz
   seed 0–199 in test/golden/compiled.txt, the MD5 over turnstile and
   turnpike of everything a checked compile decides — the code, the
   static counters, the region live-in table, the sorted recovery
   expressions, the release claims and the per-pass diagnostic keys. *)

module Scheme = Turnpike.Scheme

let compiled_digest prog =
  let one (s : Scheme.t) =
    let c =
      Pass_pipeline.compile ~opts:(Scheme.compile_opts s ~sb_size:4)
        ~check:Pass_pipeline.PerPass prog
    in
    let region (r : Pass_pipeline.region_info) =
      Printf.sprintf "%d %s %s" r.Pass_pipeline.id r.Pass_pipeline.head
        (String.concat "," (List.map Reg.to_string r.Pass_pipeline.live_in))
    in
    let expr (r, e) = Reg.to_string r ^ "=" ^ Recovery_expr.to_string e in
    let sites l =
      String.concat " " (List.map (fun (b, i) -> Printf.sprintf "%s:%d" b i) l)
    in
    String.concat "\n"
      ([
         Func.to_string c.Pass_pipeline.prog.Prog.func;
         Static_stats.to_string c.Pass_pipeline.stats;
       ]
      @ List.map region (Array.to_list c.Pass_pipeline.regions)
      @ List.map expr
          (List.sort compare
             (Hashtbl.fold (fun r e acc -> (r, e) :: acc)
                c.Pass_pipeline.recovery_exprs []))
      @ [
          sites c.Pass_pipeline.claims.Claims.bypass_stores;
          sites c.Pass_pipeline.claims.Claims.direct_ckpts;
        ]
      @ List.map Turnpike_analysis.Diag.key c.Pass_pipeline.diags)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n====\n" (List.map one [ Scheme.turnstile; Scheme.turnpike ])))

let test_compiled_golden () =
  let got =
    List.init 200 (fun seed ->
        let src = Turnpike_frontend.Fuzz.generate ~seed in
        match
          Turnpike_frontend.Tk.compile_string
            ~file:(Printf.sprintf "<fuzz-%d>" seed) ~scale:1 src
        with
        | Ok prog -> (string_of_int seed, compiled_digest prog)
        | Error e -> Alcotest.failf "seed %d rejected: %s" seed e)
  in
  Golden_file.check_keyed ~file:"compiled.txt" ~what:"compiled code" got

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pipeline_preserves_random_streams;
      prop_pipeline_preserves_random_histograms; prop_partition_hard_cap;
      prop_unroll_preserves_random_kernels ]

let tests =
  [
    ("partition boundary invariants", `Quick, test_partition_boundary_invariants);
    ("partition budget respected", `Quick, test_partition_budget_respected);
    ("partition larger SB fewer regions", `Quick, test_partition_larger_sb_fewer_regions);
    ("regions of_func roundtrip", `Quick, test_regions_of_func_roundtrip);
    ("partition preserves semantics", `Quick, test_partition_preserves_semantics);
    ("checkpoint live-out coverage", `Quick, test_ckpt_live_out_covered);
    ("checkpoint inputs at entry", `Quick, test_ckpt_inputs_checkpointed);
    ("checkpoints grow as SB shrinks (Fig 4)", `Quick, test_ckpt_more_with_small_sb);
    ("regalloc eliminates virtuals", `Quick, test_regalloc_eliminates_virtuals);
    ("regalloc preserves semantics", `Quick, test_regalloc_preserves_semantics);
    ("regalloc spills under pressure", `Quick, test_regalloc_spills_under_pressure);
    ("regalloc no spurious spills", `Quick, test_regalloc_no_spill_when_room);
    ("store-aware RA fewer spill stores", `Quick, test_store_aware_reduces_spill_stores);
    ("regalloc location queries", `Quick, test_regalloc_location_queries);
    ("pruning removes and preserves", `Quick, test_pruning_removes_and_preserves);
    ("pruning expressions evaluate", `Quick, test_pruning_expressions_evaluate);
    ("pruning diamond pattern (Fig 9)", `Quick, test_pruning_diamond_pattern);
    ("pruning keeps input checkpoints", `Quick, test_pruning_never_prunes_inputs);
    ("licm sinks flag-loop ckpts (Fig 10)", `Quick, test_licm_sinks_flag_loop);
    ("licm reduces dynamic ckpts", `Quick, test_licm_reduces_dynamic_ckpts);
    ("livm merges stream IVs (Fig 8)", `Quick, test_livm_merges_stream_ivs);
    ("livm preserves semantics", `Quick, test_livm_preserves_semantics);
    ("livm skips load-base IVs", `Quick, test_livm_skips_load_base_ivs);
    ("livm reduces dynamic ckpts", `Quick, test_livm_reduces_dynamic_ckpts);
    ("unroll preserves semantics", `Quick, test_unroll_preserves_semantics);
    ("unroll fires on counted loops", `Quick, test_unroll_fires_on_counted_loops);
    ("unroll skips indivisible trips", `Quick, test_unroll_skips_indivisible_trip_counts);
    ("unroll factor one identity", `Quick, test_unroll_factor_one_identity);
    ("unroll cuts checkpoint density", `Quick, test_unroll_reduces_dynamic_ckpt_density);
    ("sched separates and preserves", `Quick, test_sched_separates_and_preserves);
    ("sched separation invariant", `Quick, test_sched_separation_invariant);
    ("sched zero separation no-op", `Quick, test_sched_zero_separation_noop);
    ("pipeline all schemes preserve output", `Slow, test_pipeline_all_schemes_preserve_output);
    ("pipeline region infos complete", `Quick, test_pipeline_region_infos_complete);
    ("pipeline baseline has no markers", `Quick, test_pipeline_baseline_has_no_markers);
    ("pipeline input not mutated", `Quick, test_pipeline_input_not_mutated);
    ("pipeline code size increase", `Quick, test_pipeline_code_size_increase_positive);
    ("compiled fuzz programs golden", `Quick, test_compiled_golden);
  ]
  @ qcheck
