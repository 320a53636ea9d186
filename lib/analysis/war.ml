(* WAR-freedom audit (paper §4.3.1, CLQ). A store may bypass verification
   only if no load earlier in its region can read the address it
   overwrites: a fault-triggered rollback replays the region, and a
   replayed load after an already-released store would observe the new
   value. The checker recomputes the anti-dependence-free store set from
   scratch and diffs it against the set the pipeline claims bypassable.

   Aliasing is resolved conservatively: the address segments (application
   data / spill / checkpoint storage) are disjoint by construction, spill
   traffic uses absolute zero-based addresses which compare exactly, and
   anything else is assumed to alias. *)

open Turnpike_ir

let name = "war-bypass"

type access = { kind : Instr.mem_kind; base : Reg.t; off : int }

let may_alias a b =
  if not (Instr.equal_mem_kind a.kind b.kind) then false
  else if Reg.is_zero a.base && Reg.is_zero b.base then a.off = b.off
  else true

let load_access = function
  | Instr.Load (_, b, off, kind) -> Some { kind; base = b; off }
  | _ -> None

let store_access = function
  | Instr.Store (_, b, off, kind) -> Some { kind; base = b; off }
  | _ -> None

(* RPO numbers of the (unique, single-entry) chain of blocks from the
   region head down to block [k], head first, [k] excluded: it climbs
   while a block has exactly one predecessor and that predecessor is a
   reachable member of region [q]. [None] when the structure is broken
   (a structural diag is emitted elsewhere): then every region block
   counts. *)
let path_to_head cfg ~region_of q ~head k =
  let rec walk l acc guard =
    if guard = 0 then None
    else if l = head then Some acc
    else
      let preds = Cfg.rpo_preds cfg l in
      if Cfg.rpo_pred_count cfg l = 1 && Array.length preds = 1 && region_of.(preds.(0)) = q
      then walk preds.(0) (preds.(0) :: acc) (guard - 1)
      else Some acc
  in
  walk k [] 4096

let loads_of (b : Block.t) =
  List.rev
    (Array.fold_left
       (fun acc i -> match load_access i with Some a -> a :: acc | None -> acc)
       [] b.Block.body)

let independent_set (ctx : Context.t) =
  let cfg = Context.cfg ctx in
  let rv = Context.regions ctx in
  let region_of = rv.Regions_view.region_of in
  (* Each reachable block's load accesses in body order, computed once
     instead of per member block. *)
  let loads = Array.init (Cfg.num_reachable cfg) (fun k -> loads_of (Cfg.rpo_block cfg k)) in
  let result = ref [] in
  let scan (b : Block.t) loads_before =
    let seen = ref loads_before in
    Array.iteri
      (fun i instr ->
        (match load_access instr with Some a -> seen := a :: !seen | None -> ());
        match store_access instr with
        | Some s ->
          if not (List.exists (fun l -> may_alias l s) !seen) then
            result := (b.Block.label, i) :: !result
        | None -> ())
      b.Block.body
  in
  Array.iteri
    (fun q { Regions_view.head_rpo; head_block; members; _ } ->
      (* An unreachable head (hand-built IR) has no path above it. *)
      if head_rpo < 0 then scan head_block [];
      Array.iter
        (fun k ->
          let loads_before =
            match path_to_head cfg ~region_of q ~head:head_rpo k with
            | Some path -> List.concat_map (fun p -> loads.(p)) path
            | None ->
              (if head_rpo < 0 then loads_of head_block else [])
              @ List.concat_map (fun p -> loads.(p)) (Array.to_list members)
          in
          scan (Cfg.rpo_block cfg k) loads_before)
        members)
    rv.Regions_view.regions;
  List.sort compare !result

let run (ctx : Context.t) =
  match ctx.Context.claims with
  | None -> []
  | Some claims ->
    let func = ctx.Context.func in
    let fname = func.Func.name in
    let rv = Context.regions ctx in
    if not rv.Regions_view.has_regions then []
    else begin
      let indep = independent_set ctx in
      let diags = ref [] in
      let emit ?block ?instr severity msg =
        diags := Diag.make ~check:name ~severity ~func:fname ?block ?instr msg :: !diags
      in
      List.iter
        (fun (label, i) ->
          let instr =
            match Func.block_opt func label with
            | Some b when i >= 0 && i < Array.length b.Block.body -> Some b.Block.body.(i)
            | _ -> None
          in
          match instr with
          | Some instr when Instr.is_store instr ->
            if not (List.mem (label, i) indep) then
              emit ~block:label ~instr:i Diag.Error
                "store claimed verification-bypassable, but an earlier load in its region may read the same address (WAR hazard on rollback)"
          | Some _ ->
            emit ~block:label ~instr:i Diag.Error
              "verification-bypass claim does not name a store instruction"
          | None ->
            emit ~block:label ~instr:i Diag.Error
              "verification-bypass claim names a nonexistent instruction")
        claims.Context.bypass_stores;
      let claimed = claims.Context.bypass_stores in
      let missed = List.filter (fun s -> not (List.mem s claimed)) indep in
      if missed <> [] then
        emit Diag.Info
          (Printf.sprintf
             "%d store(s) are provably WAR-free within their region but not claimed bypassable"
             (List.length missed));
      Diag.sort !diags
    end
