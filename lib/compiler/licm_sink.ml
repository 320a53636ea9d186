(* Checkpoint sinking with loop-invariant code motion (paper §4.1.4).

   Eager checkpointing can be relaxed: a checkpoint only has to execute
   before its region's boundary, so it can sink from its original position
   (right after the register-update) to any later point of the region.
   When the region tree spans a loop-exit edge, a checkpoint in a loop
   block can sink into the (once-executed) exit block — taking it off the
   iteration path — provided the register is not live on any other exit of
   the region (in particular not loop-carried across the back edge).
   Duplicated checkpoints of the same register that end up together are
   deduplicated. *)

open Turnpike_ir

type result = { func : Func.t; moved : int; eliminated : int }

let run func =
  let cfg = Cfg.build func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  let live = Liveness.compute cfg in
  let regions = Regions.of_cfg cfg func in
  let moved = ref 0 in
  let depth l = Loop_info.depth loops l in
  (* For each region: map checkpoint (block, reg) to a sink target block. *)
  let region_of l = Regions.region_of regions l in
  let sink_target ~reg ~from_block =
    let rid = region_of from_block in
    let head =
      match rid with
      | Some id -> (
        match Regions.region regions id with
        | Some r -> r.Regions.head
        | None -> "")
      | None -> ""
    in
    (* Region-exit edges where the register is live; an edge to the
       region's own head (a back edge) crosses the boundary too. *)
    let exits_region s = region_of s <> rid || String.equal s head in
    let live_exits = ref [] in
    Func.iter_blocks
      (fun b ->
        if region_of b.Block.label = rid then
          List.iter
            (fun s ->
              if exits_region s && Reg.Set.mem reg (Liveness.live_in live s)
              then live_exits := (b.Block.label, s) :: !live_exits)
            (Block.successors b))
      func;
    match !live_exits with
    | [ (u, _) ] when depth u < depth from_block && not (String.equal u from_block) ->
      (* Unique live exit from a shallower block: candidate target. The
         path within the region tree from [from_block] to [u] must not
         redefine the register. *)
      let rec path_ok l =
        if String.equal l u then true
        else
          let b = Func.block func l in
          let redefs =
            Array.exists (fun i -> List.mem reg (Instr.defs i)) b.Block.body
          in
          if redefs && not (String.equal l from_block) then false
          else
            (* Follow the in-region successors toward u (never back through
               the region head). *)
            let nexts =
              List.filter
                (fun s -> region_of s = rid && not (String.equal s head))
                (Block.successors b)
            in
            List.exists path_ok nexts
      in
      if path_ok from_block then Some u else None
    | _ -> None
  in
  (* Collect sink decisions, then rewrite. *)
  let decisions = ref [] in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          match i with
          | Instr.Ckpt r when depth b.Block.label > 0 -> (
            match sink_target ~reg:r ~from_block:b.Block.label with
            | Some target -> decisions := (b.Block.label, r, target) :: !decisions
            | None -> ())
          | _ -> ())
        b.Block.body)
    func;
  let remove_last_ckpt body r =
    (* Remove the last [ckpt r] of the block (the one holding the final
       value); earlier duplicates are left for the dedupe pass. *)
    let rev = List.rev body in
    let rec go = function
      | [] -> []
      | i :: rest when Instr.equal i (Instr.Ckpt r) -> rest
      | i :: rest -> i :: go rest
    in
    List.rev (go rev)
  in
  List.iter
    (fun (src, r, target) ->
      let sb = Func.block func src in
      let before = Block.num_instrs sb in
      Block.set_body sb (remove_last_ckpt (Block.body_list sb) r);
      if Block.num_instrs sb < before then begin
        let tb = Func.block func target in
        (* Place at the top of the target block (after a boundary marker if
           one ever appears there — it cannot, since the target is in the
           same region — but keep the guard cheap). *)
        Block.set_body tb (Instr.Ckpt r :: Block.body_list tb);
        incr moved
      end)
    !decisions;
  (* Deduplicate: within a block, a checkpoint of r with no intervening
     definition of r before a later checkpoint of r is redundant. *)
  let eliminated = ref 0 in
  Func.iter_blocks
    (fun b ->
      let body = Block.body_list b in
      let rec dedupe = function
        | [] -> []
        | Instr.Ckpt r :: rest ->
          let rec survives = function
            | [] -> true
            | i :: tl ->
              if Instr.equal i (Instr.Ckpt r) then false
              else if List.mem r (Instr.defs i) then true
              else survives tl
          in
          if survives rest then Instr.Ckpt r :: dedupe rest
          else begin
            incr eliminated;
            dedupe rest
          end
        | i :: rest -> i :: dedupe rest
      in
      Block.set_body b (dedupe body))
    func;
  { func; moved = !moved; eliminated = !eliminated }
