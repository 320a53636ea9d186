(* Audit of the claims made by loop induction-variable merging (paper
   §4.1.2). The pass reports each merge it performed; this pair check
   re-derives, from the before/after function pair alone, that every
   claim was sound:

   - in [before], victim and anchor really were basic induction variables
     of the claimed loop (single in-loop self-increment each), the victim's
     step really was [ratio] times the anchor's, its loop-entry value
     matched the claimed base, and it did not escape the loop;
   - in [after], the victim is gone entirely (no definition or use
     survives), the anchor's increment is intact, and every block that
     used the victim now carries the local recompute
     [anchor * ratio + base] (or the shift form for power-of-two ratios).

   Like the scheduling pair check, this only runs in per-pass mode, on a
   snapshot taken just before the pass — register names are the
   pre-regalloc virtual ones the pass itself saw. *)

open Turnpike_ir

let name = "livm-merge"

(* The unique in-[blocks] self-increment step of [r], if it has exactly
   one in-loop definition of that shape; [`Defs n] otherwise. *)
let self_increment func blocks r =
  let defs = ref [] in
  List.iter
    (fun l ->
      match Func.block_opt func l with
      | None -> ()
      | Some b ->
        Array.iter
          (fun i -> if List.mem r (Instr.defs i) then defs := i :: !defs)
          b.Block.body)
    blocks;
  match !defs with
  | [ Instr.Binop (Instr.Add, d, a, Instr.Imm s) ]
    when Reg.equal d r && Reg.equal a r ->
    `Step s
  | ds -> `Defs (List.length ds)

(* Defs/uses of [r] restricted to [blocks] (the loop body), plus uses
   anywhere in the function. The victim's pre-header initialization is
   allowed to survive the merge as dead code — only in-loop traces of it
   (and reads of the now-stale value anywhere) are violations. *)
let counts_in func blocks r =
  let in_loop l = List.exists (String.equal l) blocks in
  let ld = ref 0 and lu = ref 0 and gu = ref 0 in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          let d = List.mem r (Instr.defs i) and u = List.mem r (Instr.uses i) in
          if u then incr gu;
          if in_loop b.Block.label then begin
            if d then incr ld;
            if u then incr lu
          end)
        b.Block.body;
      if List.mem r (Block.term_uses b) then begin
        incr gu;
        if in_loop b.Block.label then incr lu
      end)
    func;
  (!ld, !lu, !gu)

let run ~before (ctx : Context.t) =
  let after = ctx.Context.func in
  let fname = after.Func.name in
  let diags = ref [] in
  let emit ?block severity msg =
    diags := Diag.make ~check:name ~severity ~func:fname ?block msg :: !diags
  in
  (match ctx.Context.iv_merges with
  | [] -> ()
  | merges ->
    let cfg = Cfg.build before in
    let dom = Dominance.compute cfg in
    let loops = Loop_info.compute cfg dom in
    let live = Liveness.compute cfg in
    List.iter
      (fun (m : Context.iv_merge) ->
        let v = Reg.to_string m.Context.victim in
        match Loop_info.loop_of_header loops m.Context.header with
        | None ->
          emit Diag.Error
            (Printf.sprintf
               "claimed merge of %s in loop %s, but no such loop exists"
               v m.Context.header)
        | Some lp ->
          let blocks = lp.Loop_info.blocks in
          (* -- the before side: both really were basic IVs, steps agree -- *)
          (match
             ( self_increment before blocks m.Context.victim,
               self_increment before blocks m.Context.anchor )
           with
          | `Step sv, `Step sa ->
            if m.Context.ratio < 1 || sv <> m.Context.ratio * sa then
              emit ~block:m.Context.header Diag.Error
                (Printf.sprintf
                   "merge of %s into %s claims ratio %d, but the steps are %d and %d"
                   v
                   (Reg.to_string m.Context.anchor)
                   m.Context.ratio sv sa)
          | `Defs n, _ ->
            emit ~block:m.Context.header Diag.Error
              (Printf.sprintf
                 "merged register %s was not a basic induction variable (%d in-loop definitions)"
                 v n)
          | _, `Defs n ->
            emit ~block:m.Context.header Diag.Error
              (Printf.sprintf
                 "merge anchor %s is not a basic induction variable (%d in-loop definitions)"
                 (Reg.to_string m.Context.anchor)
                 n));
          (* -- the victim must not have been live out of the loop -- *)
          List.iter
            (fun (_, target) ->
              if Reg.Set.mem m.Context.victim (Liveness.live_in live target)
              then
                emit ~block:target Diag.Error
                  (Printf.sprintf
                     "merged register %s escapes the loop (live into exit %s)"
                     v target))
            (Loop_info.exits loops cfg m.Context.header);
          (* -- the after side: victim eliminated from the loop, anchor
                intact. (Its pre-header init may survive as dead code.) -- *)
          let vdefs, vuses, guses = counts_in after blocks m.Context.victim in
          if vdefs > 0 || vuses > 0 || guses > 0 then
            emit Diag.Error
              (Printf.sprintf
                 "merged register %s survives the merge (%d in-loop definitions, %d in-loop uses, %d uses total)"
                 v vdefs vuses guses);
          (match self_increment after blocks m.Context.anchor with
          | `Step _ -> ()
          | `Defs n ->
            emit ~block:m.Context.header Diag.Error
              (Printf.sprintf
                 "anchor %s lost its increment after the merge (%d in-loop definitions)"
                 (Reg.to_string m.Context.anchor)
                 n));
          (* -- every block that read the victim now recomputes it -- *)
          let base_matches = function
            | Instr.Imm c -> m.Context.iv_base = `Const c
            | Instr.Reg b -> m.Context.iv_base = `Reg b
          in
          let scale_matches t = function
            | Instr.Binop (Instr.Shl, d, a, Instr.Imm k) ->
              Reg.equal d t && Reg.equal a m.Context.anchor
              && k >= 0 && k < 62
              && Int.shift_left 1 k = m.Context.ratio
            | Instr.Binop (Instr.Mul, d, a, Instr.Imm q) ->
              Reg.equal d t && Reg.equal a m.Context.anchor
              && q = m.Context.ratio
            | _ -> false
          in
          let recompute_present b =
            let body = Block.body_list b in
            List.exists
              (fun i ->
                match i with
                | Instr.Binop (Instr.Add, _, t1, o) when base_matches o ->
                  List.exists (fun j -> scale_matches t1 j) body
                | _ -> false)
              body
          in
          List.iter
            (fun l ->
              match (Func.block_opt before l, Func.block_opt after l) with
              | Some bb, Some ab ->
                let read_victim =
                  Array.exists
                    (fun i ->
                      List.mem m.Context.victim (Instr.uses i)
                      && not (List.mem m.Context.victim (Instr.defs i)))
                    bb.Block.body
                in
                if read_victim && not (recompute_present ab) then
                  emit ~block:l Diag.Error
                    (Printf.sprintf
                       "block %s used %s but carries no %s*%d+base recompute after the merge"
                       l v
                       (Reg.to_string m.Context.anchor)
                       m.Context.ratio)
              | _ -> ())
            blocks)
      merges);
  Diag.sort !diags
