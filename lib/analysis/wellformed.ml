(* IR well-formedness lint: CFG/label consistency, definite assignment
   (every use reached by a definition on all paths, checked against the
   dominator-ordered dataflow), and register-class sanity. *)

open Turnpike_ir

let name = "wellformed"

(* The label/layout checks, on labels because they check the labels
   themselves: their diagnostics, and whether every terminator target
   resolves. *)
let structure func =
  let diags = ref [] in
  let emit ?block severity msg =
    diags := Diag.make ~check:name ~severity ~func:func.Func.name ?block msg :: !diags
  in
  let structural_ok = ref true in
  (match Func.block_opt func func.Func.entry with
  | Some _ -> ()
  | None ->
    structural_ok := false;
    emit Diag.Error (Printf.sprintf "entry block %s does not exist" func.Func.entry));
  let in_order : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun l ->
      (match Hashtbl.find_opt in_order l with
      | Some _ -> emit ~block:l Diag.Error "label appears twice in layout order"
      | None -> Hashtbl.replace in_order l 1);
      if Func.block_opt func l = None then begin
        (* [Cfg.build] cannot resolve it either. *)
        structural_ok := false;
        emit ~block:l Diag.Error "layout order mentions an unknown label"
      end)
    func.Func.order;
  (* The function's table, not its layout order: a block the order leaves
     out is still one the function has. *)
  Hashtbl.iter
    (fun l b ->
      if not (Hashtbl.mem in_order l) then
        emit ~block:l Diag.Error "block is missing from the layout order";
      List.iter
        (fun s ->
          if Func.block_opt func s = None then begin
            structural_ok := false;
            emit ~block:l Diag.Error (Printf.sprintf "terminator targets unknown label %s" s)
          end)
        (Block.successors b))
    func.Func.blocks;
  (!structural_ok, !diags)

let run (ctx : Context.t) =
  let func = ctx.Context.func in
  let fname = func.Func.name in
  let diags = ref [] in
  let emit ?block ?instr severity msg =
    diags := Diag.make ~check:name ~severity ~func:fname ?block ?instr msg :: !diags
  in
  (* --- label / layout consistency ------------------------------------ *)
  (* A CFG that builds over a clean layout has already resolved every
     label the checks below would look up, so they have nothing to say. *)
  let clean =
    match Context.cfg ctx with
    | cfg -> Cfg.clean_layout cfg
    | exception Invalid_argument _ -> false
  in
  let structural_ok =
    clean
    ||
    let ok, ds = structure func in
    diags := ds;
    ok
  in
  (* The CFG (and every analysis built on it) is only constructible once
     every layout label and terminator target resolves; with dangling
     labels the structural errors are the whole story. *)
  if not structural_ok then Diag.sort !diags
  else begin
  let cfg = Context.cfg ctx in
  (* One fused scan: reachability diags, register-class sanity, and the
     physical/virtual id extents the definite-assignment bitsets are sized
     from. The extents are tracked separately so the dataflow can remap
     the sparse id space (physicals near 0, virtuals from [Reg.virt_base])
     onto a compact universe — pre-regalloc rounds would otherwise drag
     ~[Reg.virt_base] permanently-zero bits through every word loop. *)
  let max_phys = ref 0 in
  let max_virt = ref (-1) in
  let span r =
    if Reg.is_virtual r then (if r > !max_virt then max_virt := r)
    else if r > !max_phys then max_phys := r
  in
  let check_classes = not ctx.Context.allow_virtual in
  (* the position [visit] (and below, [read]) reports at: instruction
     [!at_instr] of block [!at_block], or its terminator when negative;
     one closure serves the whole scan *)
  let at_block = ref "" and at_instr = ref (-1) in
  let bad msg =
    emit ~block:!at_block ?instr:(if !at_instr < 0 then None else Some !at_instr) Diag.Error msg
  in
  let visit r =
    span r;
    if check_classes then
      if Reg.is_virtual r then
        bad (Printf.sprintf "virtual register %s survives register allocation" (Reg.to_string r))
      else if (not (Reg.is_zero r)) && r >= ctx.Context.nregs then
        bad
          (Printf.sprintf "register %s is outside the %d-register machine file"
             (Reg.to_string r) ctx.Context.nregs)
  in
  Cfg.iter_layout cfg
    (fun k b ->
      at_block := b.Block.label;
      if k < 0 then
        emit ~block:b.Block.label Diag.Info "block is unreachable from the entry";
      Array.iteri
        (fun i instr ->
          at_instr := i;
          Instr.iter_defs visit instr;
          Instr.iter_uses visit instr;
          match instr with
          | Instr.Ckpt r when check_classes && Reg.is_zero r ->
            emit ~block:b.Block.label ~instr:i Diag.Error "checkpoint of the zero register"
          | _ -> ())
        b.Block.body;
      at_instr := -1;
      List.iter visit (Block.term_uses b));
  (* --- definite assignment: defs must reach uses on every path -------- *)
  Reg.Set.iter span ctx.Context.entry_defined;
  (* Compact universe: physicals keep their ids, virtuals are shifted down
     to sit just above the highest physical actually seen. *)
  let gap = !max_phys + 1 in
  let rid r = if Reg.is_virtual r then r - Reg.virt_base + gap else r in
  let maxid =
    if !max_virt < 0 then !max_phys else gap + (!max_virt - Reg.virt_base)
  in
  let entry_bs = Bitset.create ~max_id:maxid in
  Reg.Set.iter (fun r -> Bitset.add entry_bs (rid r)) ctx.Context.entry_defined;
  (* The fixpoint runs on the CFG's RPO numbers, so the iterations touch
     only arrays. Unreachable blocks have none: their defs still feed
     [all_regs] (the optimistic top of the must lattice), and an edge from
     one stays permanently unresolved. Only a block whose predecessors
     are all unresolved reads [all_regs], which a clean layout never
     produces: each block's DFS parent precedes it. *)
  let n = Cfg.num_reachable cfg in
  let all_regs =
    lazy
      (let all = Bitset.copy entry_bs in
       Func.iter_blocks
         (fun b ->
           Array.iter (Instr.iter_defs (fun r -> Bitset.add all (rid r))) b.Block.body)
         func;
       all)
  in
  let defs_arr =
    Array.init n (fun k ->
        let ds = Bitset.create ~max_id:maxid in
        Array.iter
          (Instr.iter_defs (fun r -> Bitset.add ds (rid r)))
          (Cfg.rpo_block cfg k).Block.body;
        ds)
  in
  (* OUT absent = not yet computed (top of the must lattice). *)
  let out : Bitset.t option array = Array.make n None in
  let ins : Bitset.t array = Array.make n entry_bs in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let inn =
        if i = 0 then entry_bs
        else begin
          let acc = ref None in
          Array.iter
            (fun p ->
              match out.(p) with
              | None -> () (* unresolved pred: optimistic top *)
              | Some s -> (
                match !acc with
                | None -> acc := Some (Bitset.copy s)
                | Some a -> Bitset.inter_into ~dst:a s))
            (Cfg.rpo_preds cfg i);
          match !acc with Some a -> a | None -> Lazy.force all_regs
        end
      in
      (* the last (quiescent) iteration leaves the converged IN sets *)
      ins.(i) <- inn;
      let o = Bitset.copy inn in
      Bitset.union_into ~dst:o defs_arr.(i);
      match out.(i) with
      | Some prev when Bitset.equal prev o -> ()
      | _ ->
        out.(i) <- Some o;
        changed := true
    done
  done;
  let defined = ref entry_bs in
  let read r =
    if not (Bitset.mem !defined (rid r)) then
      if !at_instr >= 0 then
        emit ~block:!at_block ~instr:!at_instr Diag.Warn
          (Printf.sprintf "register %s may be read before any definition reaches it"
             (Reg.to_string r))
      else
        emit ~block:!at_block Diag.Warn
          (Printf.sprintf "branch reads register %s before any definition reaches it"
             (Reg.to_string r))
  in
  let define r = Bitset.add !defined (rid r) in
  for k = 0 to n - 1 do
    let b = Cfg.rpo_block cfg k in
    at_block := Cfg.rpo_label cfg k;
    defined := Bitset.copy ins.(k);
    Array.iteri
      (fun i instr ->
        at_instr := i;
        Instr.iter_uses read instr;
        Instr.iter_defs define instr)
      b.Block.body;
    at_instr := -1;
    List.iter read (Block.term_uses b)
  done;
  Diag.sort !diags
  end
