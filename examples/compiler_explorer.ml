(* Compiler explorer: dump the IR of one kernel after each phase of the
   Turnpike pipeline, making the paper's Fig 7 workflow visible — region
   boundaries, eager checkpoints, pruning, LICM sinking and
   checkpoint-aware scheduling.

   Run with:  dune exec examples/compiler_explorer.exe *)

open Turnpike_ir
open Turnpike_compiler

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let dump func = print_string (Func.to_string func)

let () =
  let prog = Turnpike_workloads.Templates.flag_loop ~seed:5 ~iters:16 () in

  banner "Source (virtual registers)";
  dump prog.Prog.func;

  (* Phase 1a: loop induction variable merging happens pre-RA; flag_loop
     uses index addressing, so show it on a stream kernel instead. *)
  let stream = Turnpike_workloads.Templates.stream_store ~seed:3 ~iters:16 ~ways:1 () in
  let f = Func.copy stream.Prog.func in
  let livm = Livm.run f in
  banner (Printf.sprintf "LIVM on a stream kernel (%d induction variable(s) merged)" livm.Livm.merged);
  dump livm.Livm.func;

  (* Phase 1b: register allocation. *)
  let prog = Prog.with_func prog (Func.copy prog.Prog.func) in
  let ra = Regalloc.run prog.Prog.func in
  banner
    (Printf.sprintf "After register allocation (%d spills, %d spill stores)"
       ra.Regalloc.spilled_vregs ra.Regalloc.spill_stores);
  dump ra.Regalloc.func;

  (* Phase 2: SB-aware partitioning + eager checkpointing. *)
  let cfg = Regions.partition ~budget:2 prog.Prog.func in
  let _, inserted = Checkpoint.insert ~cfg prog.Prog.func in
  banner (Printf.sprintf "Regions + eager checkpoints (%d inserted)" inserted);
  dump prog.Prog.func;

  (* Phase 3: optimal checkpoint pruning. *)
  let pr = Pruning.run prog.Prog.func in
  banner (Printf.sprintf "After pruning (%d checkpoints removed)" pr.Pruning.pruned);
  Hashtbl.iter
    (fun reg expr ->
      Printf.printf "  recovery: %s := %s\n" (Reg.to_string reg)
        (Recovery_expr.to_string expr))
    pr.Pruning.exprs;
  dump prog.Prog.func;

  (* Phase 4: LICM checkpoint sinking. *)
  let li = Licm_sink.run prog.Prog.func in
  banner
    (Printf.sprintf "After LICM sinking (%d moved, %d deduplicated)" li.Licm_sink.moved
       li.Licm_sink.eliminated);
  dump prog.Prog.func;

  (* Phase 5: checkpoint-aware scheduling. *)
  let sc = Scheduling.run prog.Prog.func in
  banner (Printf.sprintf "After scheduling (%d checkpoints separated)" sc.Scheduling.moved);
  dump prog.Prog.func;

  (* Region metadata the resilience engine consumes. *)
  let compiled = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
  banner "Recovery metadata (per region: head block + live-in registers)";
  Array.iter
    (fun (info : Pass_pipeline.region_info) ->
      Printf.printf "  region %d @ %s: restore [%s]\n" info.Pass_pipeline.id
        info.Pass_pipeline.head
        (String.concat ", "
           (List.map Reg.to_string info.Pass_pipeline.live_in)))
    compiled.Pass_pipeline.regions;

  (* The actual recovery blocks the core would execute (paper Fig 1b). *)
  let blocks = Recovery_codegen.generate ~compiled ~nregs:32 in
  banner
    (Printf.sprintf "Generated recovery blocks (%d instructions total)"
       (Recovery_codegen.size blocks));
  List.iter (fun blk -> print_string (Recovery_codegen.to_string blk)) blocks
