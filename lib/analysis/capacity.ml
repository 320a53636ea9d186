(* Capacity checks for the resilient microarchitecture (paper §4.3):

   - a region's worst-case store-buffer demand must fit the SB, or commit
     deadlocks under strict partitioning; the partitioner aims for sb/2 so
     two regions can overlap (gap-free verification), so exceeding the
     target is a warning;
   - checkpoint colors: each register owns a small color pool; duplicate
     checkpoints of one register inside one region waste pool slots;
   - direct-release checkpoint claims (the paper's Fig 16 optimisation
     made safe): only a register whose unique checkpoint site executes at
     most once per region activation may release without verification;
   - CLQ configuration sanity when the machine parameters are known. *)

open Turnpike_ir

let name = "capacity"

(* Longest root-to-leaf store-buffer demand of a region: member blocks of
   a well-formed region form a tree below the head (non-heads are
   single-entry), so a DFS with an on-path guard suffices. It walks RPO
   numbers: [stores] holds each reachable block's store count and
   [region_of] the view's region index per block. An unreachable head
   (hand-built IR) reaches the members through its successor labels. *)
let worst_sb_path cfg ~stores ~region_of q (r : Regions_view.region) =
  let inside k = region_of.(k) = q && k <> r.Regions_view.head_rpo in
  let rec dfs path k =
    if List.mem k path then 0
    else
      stores.(k)
      + Array.fold_left
          (fun acc s -> if inside s then max acc (dfs (k :: path) s) else acc)
          0 (Cfg.rpo_succs cfg k)
  in
  if r.Regions_view.head_rpo >= 0 then dfs [] r.Regions_view.head_rpo
  else
    Block.num_stores r.Regions_view.head_block
    + List.fold_left
        (fun acc s ->
          match Cfg.rpo_number cfg s with
          | Some k when inside k -> max acc (dfs [] k)
          | _ -> acc)
        0
        (Block.successors r.Regions_view.head_block)

(* Every block of a region: an unreachable head, then the members. *)
let iter_region_blocks cfg f (r : Regions_view.region) =
  if r.Regions_view.head_rpo < 0 then f r.Regions_view.head_block;
  Array.iter (fun k -> f (Cfg.rpo_block cfg k)) r.Regions_view.members

let run (ctx : Context.t) =
  let func = ctx.Context.func in
  let fname = func.Func.name in
  let rv = Context.regions ctx in
  if not rv.Regions_view.has_regions then []
  else begin
    let diags = ref [] in
    let emit ?block ?instr severity msg =
      diags := Diag.make ~check:name ~severity ~func:fname ?block ?instr msg :: !diags
    in
    let cfg = Context.cfg ctx in
    (* --- store-buffer demand ----------------------------------------- *)
    if ctx.Context.sb_size > 0 then begin
      let target = max 1 (ctx.Context.sb_size / 2) in
      let stores =
        Array.init (Cfg.num_reachable cfg) (fun k -> Block.num_stores (Cfg.rpo_block cfg k))
      in
      let region_of = rv.Regions_view.region_of in
      Array.iteri
        (fun q r ->
          let demand = worst_sb_path cfg ~stores ~region_of q r in
          if demand > ctx.Context.sb_size then
            emit ~block:r.Regions_view.head Diag.Error
              (Printf.sprintf
                 "region %d needs %d store-buffer entries on its worst path but the SB has %d (commit deadlock)"
                 r.Regions_view.id demand ctx.Context.sb_size)
          else if demand > target then
            emit ~block:r.Regions_view.head Diag.Warn
              (Printf.sprintf
                 "region %d needs %d store-buffer entries, above the sb/2 overlap target of %d"
                 r.Regions_view.id demand target))
        rv.Regions_view.regions
    end;
    (* --- per-region checkpoint multiplicity vs the color pool --------- *)
    Array.iter
      (fun ({ Regions_view.id; _ } as region) ->
        let ckpts = ref [] in
        iter_region_blocks cfg
          (fun b ->
            Array.iter
              (function Instr.Ckpt r -> ckpts := r :: !ckpts | _ -> ())
              b.Block.body)
          region;
        (* runs of equal registers, in register order *)
        let rec runs = function
          | [] -> ()
          | r :: rest ->
            let rec count n = function
              | r' :: rest when Reg.equal r r' -> count (n + 1) rest
              | rest -> (n, rest)
            in
            let n, rest = count 1 rest in
            if n > ctx.Context.colors then
              emit Diag.Warn
                (Printf.sprintf
                   "register %s is checkpointed %d times in region %d, more than the %d-color pool"
                   (Reg.to_string r) n id ctx.Context.colors);
            runs rest
        in
        runs (List.sort Reg.compare !ckpts))
      rv.Regions_view.regions;
    (* --- direct-release checkpoint claims ----------------------------- *)
    (match ctx.Context.claims with
    | None -> ()
    | Some { Context.direct_ckpts = []; _ } -> ()
    | Some claims ->
      let n = Cfg.num_reachable cfg in
      let self_reachable label =
        match Cfg.rpo_number cfg label with
        | Some k0 ->
          (* DFS from the successors of [k0] back to it; every path from
             a reachable block stays among reachable ones *)
          let seen = Array.make n false in
          let rec go = function
            | [] -> false
            | k :: rest ->
              if k = k0 then true
              else if seen.(k) then go rest
              else begin
                seen.(k) <- true;
                go (Array.fold_right (fun s acc -> s :: acc) (Cfg.rpo_succs cfg k) rest)
              end
          in
          go (Array.to_list (Cfg.rpo_succs cfg k0))
        | None ->
          (* the same DFS by label, among unreachable blocks *)
          let rec go visited = function
            | [] -> false
            | l :: rest ->
              if String.equal l label then true
              else if List.mem l visited then go visited rest
              else go (l :: visited) (Cfg.successors cfg l @ rest)
          in
          go [] (Cfg.successors cfg label)
      in
      let claimed (label, i) =
        match Func.block_opt func label with
        | Some b when i >= 0 && i < Array.length b.Block.body -> Some b.Block.body.(i)
        | _ -> None
      in
      (* One scan counts the checkpoint sites and definitions of every
         claimed register (claims can be numerous; a scan per claim is
         not). *)
      let counts : (int ref * int ref) Reg.Tbl.t = Reg.Tbl.create 8 in
      List.iter
        (fun c ->
          match claimed c with
          | Some (Instr.Ckpt r) -> Reg.Tbl.replace counts r (ref 0, ref 0)
          | _ -> ())
        claims.Context.direct_ckpts;
      Cfg.iter_layout cfg (fun _ b ->
          Array.iter
            (fun instr ->
              (match instr with
              | Instr.Ckpt r -> (
                match Reg.Tbl.find_opt counts r with Some (c, _) -> incr c | None -> ())
              | _ -> ());
              Instr.iter_defs
                (fun r ->
                  match Reg.Tbl.find_opt counts r with Some (_, d) -> incr d | None -> ())
                instr)
            b.Block.body);
      let ckpt_sites r = !(fst (Reg.Tbl.find counts r)) in
      let def_count r = !(snd (Reg.Tbl.find counts r)) in
      let live = Context.liveness ctx in
      let dom = Context.dominance ctx in
      List.iter
        (fun ((label, i) as claim) ->
          match claimed claim with
          | Some (Instr.Ckpt r) ->
            let sites = ckpt_sites r in
            if sites > 1 then
              emit ~block:label ~instr:i Diag.Error
                (Printf.sprintf
                   "checkpoint of %s claimed direct-release but the register has %d checkpoint sites"
                   (Reg.to_string r) sites);
            if self_reachable label then
              emit ~block:label ~instr:i Diag.Error
                (Printf.sprintf
                   "checkpoint of %s claimed direct-release inside a loop: re-execution overwrites the verified slot"
                   (Reg.to_string r));
            if Reg.is_zero r || Reg.is_virtual r then
              emit ~block:label ~instr:i Diag.Error
                "direct-release claim names a non-architectural register";
            (* Every restart that restores r must happen strictly after
               the (early-released) slot was written, or the restored
               value is from the future. A never-defined register is
               exempt: its slot always equals its (initial) value. *)
            if def_count r > 0 then begin
              let site = Cfg.rpo_number cfg label in
              Array.iter
                (fun { Regions_view.id; head_rpo; _ } ->
                  if
                    head_rpo >= 0
                    && Liveness.mem_live_in live head_rpo r
                    && not
                         (match site with
                         | Some k ->
                           k <> head_rpo && Dominance.rpo_dominates dom ~dom:k ~sub:head_rpo
                         | None -> false)
                  then
                    emit ~block:label ~instr:i Diag.Error
                      (Printf.sprintf
                         "direct-release checkpoint of %s does not dominate region %d, which restores it on restart"
                         (Reg.to_string r) id))
                rv.Regions_view.regions
            end
          | Some _ ->
            emit ~block:label ~instr:i Diag.Error
              "direct-release claim does not name a checkpoint instruction"
          | None ->
            emit ~block:label ~instr:i Diag.Error
              "direct-release claim names a nonexistent instruction")
        claims.Context.direct_ckpts);
    (* --- CLQ configuration sanity ------------------------------------- *)
    (match ctx.Context.clq_entries with
    | Some n when n <= 0 ->
      emit Diag.Error (Printf.sprintf "compact CLQ configured with %d entries" n)
    | Some n -> (
      match ctx.Context.rbb_size with
      | Some rbb when rbb > n ->
        emit Diag.Info
          (Printf.sprintf
             "CLQ of %d entries tracks a %d-entry RBB window; overflow falls back to quarantined release"
             n rbb)
      | _ -> ())
    | None -> ());
    Diag.sort !diags
  end
