(* Reference dataflow analyses for differential tests: the string-keyed
   [Cfg], [Liveness], [Dominance] and [Loop_info] that the dense
   block-index versions in [Turnpike_ir] replaced, kept as they were.
   Every table is a hash table keyed by block label and the liveness sets
   are materialized eagerly. Slower, but the new analyses must answer
   every public query exactly as these do, list orders included. *)

open Turnpike_ir

module Cfg = struct
  type t = {
    func : Func.t;
    preds : (string, string list) Hashtbl.t;
    rpo : string array;
    rpo_index : (string, int) Hashtbl.t;
  }

  let build func =
    let preds = Hashtbl.create 64 in
    Func.iter_blocks
      (fun b ->
        List.iter
          (fun s ->
            let cur = Option.value (Hashtbl.find_opt preds s) ~default:[] in
            Hashtbl.replace preds s (b.Block.label :: cur))
          (Block.successors b))
      func;
    (* Post-order DFS from entry; reverse for RPO. Unreachable blocks are
       excluded from the RPO but remain in the function. *)
    let visited = Hashtbl.create 64 in
    let post = ref [] in
    let rec dfs l =
      if not (Hashtbl.mem visited l) then begin
        Hashtbl.add visited l ();
        List.iter dfs (Block.successors (Func.block func l));
        post := l :: !post
      end
    in
    dfs func.Func.entry;
    let rpo = Array.of_list !post in
    let rpo_index = Hashtbl.create 64 in
    Array.iteri (fun i l -> Hashtbl.replace rpo_index l i) rpo;
    { func; preds; rpo; rpo_index }

  let predecessors t l = Option.value (Hashtbl.find_opt t.preds l) ~default:[]

  let successors t l = Block.successors (Func.block t.func l)

  let reverse_postorder t = Array.to_list t.rpo

  let postorder t = List.rev (Array.to_list t.rpo)

  let rpo_number t l = Hashtbl.find_opt t.rpo_index l

  let is_reachable t l = Hashtbl.mem t.rpo_index l

  let reachable_labels t = Array.to_list t.rpo

  let is_back_edge_candidate t ~src ~dst =
    match (rpo_number t src, rpo_number t dst) with
    | Some a, Some b -> b <= a
    | _ -> false
end

module Liveness = struct
  (* Classic backward liveness over registers, plus a per-instruction view
     used by checkpoint insertion and pruning. *)

  type t = {
    live_in : (string, Reg.Set.t) Hashtbl.t;
    live_out : (string, Reg.Set.t) Hashtbl.t;
  }

  (* The fixpoint runs on {!Bitset}s over a compacted id universe —
     physical registers keep their ids, virtuals are shifted down next to
     them — and only the converged sets are materialized as the public
     tree-set view. Compilation recomputes liveness after most
     instruction-editing passes (and the per-pass checker does so again),
     which makes the fixpoint itself the hot path. *)
  let compute cfg func =
    let max_phys = ref 0 in
    let max_virt = ref (-1) in
    let span r =
      if Reg.is_virtual r then (if r > !max_virt then max_virt := r)
      else if r > !max_phys then max_phys := r
    in
    Func.iter_blocks
      (fun b ->
        Array.iter
          (fun i ->
            Instr.iter_defs span i;
            Instr.iter_uses span i)
          b.Block.body;
        List.iter span (Block.term_uses b))
      func;
    let gap = !max_phys + 1 in
    let rid r = if Reg.is_virtual r then r - Reg.virt_base + gap else r in
    let inv id = if id < gap then id else id - gap + Reg.virt_base in
    let maxid =
      if !max_virt < 0 then !max_phys else gap + (!max_virt - Reg.virt_base)
    in
    let use_def = Hashtbl.create 64 in
    let in_bs = Hashtbl.create 64 and out_bs = Hashtbl.create 64 in
    Func.iter_blocks
      (fun b ->
        let use = Bitset.create ~max_id:maxid in
        let def = Bitset.create ~max_id:maxid in
        Array.iter
          (fun i ->
            Instr.iter_uses
              (fun r ->
                let r = rid r in
                if not (Bitset.mem def r) then Bitset.add use r)
              i;
            Instr.iter_defs (fun r -> Bitset.add def (rid r)) i)
          b.Block.body;
        List.iter
          (fun r ->
            let r = rid r in
            if not (Bitset.mem def r) then Bitset.add use r)
          (Block.term_uses b);
        Hashtbl.replace use_def b.Block.label (use, def);
        Hashtbl.replace in_bs b.Block.label (Bitset.create ~max_id:maxid);
        Hashtbl.replace out_bs b.Block.label (Bitset.create ~max_id:maxid))
      func;
    let changed = ref true in
    let order = Cfg.postorder cfg in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          let out = Bitset.create ~max_id:maxid in
          List.iter
            (fun s ->
              match Hashtbl.find_opt in_bs s with
              | Some bs -> Bitset.union_into ~dst:out bs
              | None -> ())
            (Cfg.successors cfg l);
          let use, def = Hashtbl.find use_def l in
          let inn = Bitset.transfer ~gen:use ~kill:def out in
          if not (Bitset.equal out (Hashtbl.find out_bs l)) then begin
            Hashtbl.replace out_bs l out;
            changed := true
          end;
          if not (Bitset.equal inn (Hashtbl.find in_bs l)) then begin
            Hashtbl.replace in_bs l inn;
            changed := true
          end)
        order
    done;
    let to_set bs =
      let acc = ref Reg.Set.empty in
      Bitset.iter (fun id -> acc := Reg.Set.add (inv id) !acc) bs;
      !acc
    in
    let live_in = Hashtbl.create 64 and live_out = Hashtbl.create 64 in
    Hashtbl.iter (fun l bs -> Hashtbl.replace live_in l (to_set bs)) in_bs;
    Hashtbl.iter (fun l bs -> Hashtbl.replace live_out l (to_set bs)) out_bs;
    { live_in; live_out }

  let live_in t l = Option.value (Hashtbl.find_opt t.live_in l) ~default:Reg.Set.empty

  let live_out t l = Option.value (Hashtbl.find_opt t.live_out l) ~default:Reg.Set.empty

  let live_before_each t (b : Block.t) =
    (* live.(i) = registers live immediately before instruction i. The array
       has one extra slot: live.(n) is liveness before the terminator. *)
    let n = Array.length b.body in
    let live = Array.make (n + 1) Reg.Set.empty in
    let after_term = live_out t b.label in
    let before_term =
      List.fold_left (fun acc r -> Reg.Set.add r acc) after_term (Block.term_uses b)
    in
    live.(n) <- before_term;
    for i = n - 1 downto 0 do
      let ins = b.body.(i) in
      let s = live.(i + 1) in
      let s = List.fold_left (fun acc r -> Reg.Set.remove r acc) s (Instr.defs ins) in
      let s = List.fold_left (fun acc r -> Reg.Set.add r acc) s (Instr.uses ins) in
      live.(i) <- s
    done;
    live
end

module Dominance = struct
  (* Iterative dominator computation (Cooper-Harvey-Kennedy) over the RPO of
     reachable blocks. *)

  type t = {
    cfg : Cfg.t;
    idom : (string, string) Hashtbl.t; (* entry maps to itself *)
  }

  let compute cfg =
    let rpo = Array.of_list (Cfg.reverse_postorder cfg) in
    let index = Hashtbl.create 64 in
    Array.iteri (fun i l -> Hashtbl.replace index l i) rpo;
    let entry = rpo.(0) in
    let idom = Hashtbl.create 64 in
    Hashtbl.replace idom entry entry;
    let intersect a b =
      (* Walk up the (partially built) dominator tree in RPO-index space. *)
      let rec up x y =
        if String.equal x y then x
        else
          let ix = Hashtbl.find index x and iy = Hashtbl.find index y in
          if ix > iy then up (Hashtbl.find idom x) y else up x (Hashtbl.find idom y)
      in
      up a b
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun l ->
          if not (String.equal l entry) then begin
            let processed_preds =
              List.filter
                (fun p -> Hashtbl.mem idom p && Hashtbl.mem index p)
                (Cfg.predecessors cfg l)
            in
            match processed_preds with
            | [] -> ()
            | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              (match Hashtbl.find_opt idom l with
              | Some old when String.equal old new_idom -> ()
              | _ ->
                Hashtbl.replace idom l new_idom;
                changed := true)
          end)
        rpo
    done;
    { cfg; idom }

  let idom t l =
    match Hashtbl.find_opt t.idom l with
    | Some d when not (String.equal d l) -> Some d
    | Some _ -> None (* entry *)
    | None -> None (* unreachable *)

  let dominates t ~dom ~sub =
    if not (Cfg.is_reachable t.cfg sub) then false
    else
      let rec up x =
        if String.equal x dom then true
        else
          match Hashtbl.find_opt t.idom x with
          | Some d when not (String.equal d x) -> up d
          | _ -> false
      in
      up sub

  let strictly_dominates t ~dom ~sub =
    (not (String.equal dom sub)) && dominates t ~dom ~sub

  let dominators t l =
    let rec up x acc =
      match Hashtbl.find_opt t.idom x with
      | Some d when not (String.equal d x) -> up d (d :: acc)
      | _ -> acc
    in
    if Cfg.is_reachable t.cfg l then l :: up l [] else []
end

module Loop_info = struct
  type loop = {
    header : string;
    latches : string list;
    blocks : string list;
    depth : int;
    parent : string option;
  }

  type t = {
    loops : (string, loop) Hashtbl.t; (* keyed by header *)
    innermost : (string, string) Hashtbl.t; (* block -> innermost header *)
  }

  module SS = Set.Make (String)

  let compute cfg dom =
    (* A back edge src->dst exists when dst dominates src. The natural loop
       of the edge is dst plus everything that reaches src without passing
       through dst. *)
    let back_edges = ref [] in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if Dominance.dominates dom ~dom:dst ~sub:src then
              back_edges := (src, dst) :: !back_edges)
          (Cfg.successors cfg src))
      (Cfg.reachable_labels cfg);
    let natural (src, header) =
      let body = ref (SS.singleton header) in
      let rec pull l =
        if not (SS.mem l !body) then begin
          body := SS.add l !body;
          List.iter pull (Cfg.predecessors cfg l)
        end
      in
      pull src;
      !body
    in
    (* Merge loops sharing a header (multiple latches). *)
    let merged = Hashtbl.create 8 in
    List.iter
      (fun ((src, header) as e) ->
        let body = natural e in
        match Hashtbl.find_opt merged header with
        | None -> Hashtbl.replace merged header (body, [ src ])
        | Some (b, latches) -> Hashtbl.replace merged header (SS.union b body, src :: latches))
      !back_edges;
    (* Nesting: loop A is inside loop B when A's header is in B's body and
       A <> B. Depth = number of enclosing loops + 1. *)
    let headers = Hashtbl.fold (fun h _ acc -> h :: acc) merged [] in
    let enclosing h =
      List.filter
        (fun h' ->
          (not (String.equal h h'))
          &&
          let b', _ = Hashtbl.find merged h' in
          SS.mem h b')
        headers
    in
    let loops = Hashtbl.create 8 in
    List.iter
      (fun h ->
        let body, latches = Hashtbl.find merged h in
        let encl = enclosing h in
        let parent =
          (* Innermost enclosing loop = the enclosing loop with the largest
             depth i.e. smallest body. *)
          match encl with
          | [] -> None
          | _ ->
            let size h' = SS.cardinal (fst (Hashtbl.find merged h')) in
            Some (List.fold_left (fun best c -> if size c < size best then c else best)
                    (List.hd encl) (List.tl encl))
        in
        Hashtbl.replace loops h
          {
            header = h;
            latches;
            blocks = SS.elements body;
            depth = List.length encl + 1;
            parent;
          })
      headers;
    let innermost = Hashtbl.create 64 in
    Hashtbl.iter
      (fun h (body, _) ->
        SS.iter
          (fun l ->
            match Hashtbl.find_opt innermost l with
            | None -> Hashtbl.replace innermost l h
            | Some prev ->
              let size x = SS.cardinal (fst (Hashtbl.find merged x)) in
              if size h < size prev then Hashtbl.replace innermost l h)
          body)
      merged;
    { loops; innermost }

  let loops t = Hashtbl.fold (fun _ l acc -> l :: acc) t.loops []

  let loop_of_header t h = Hashtbl.find_opt t.loops h

  let innermost_loop t l =
    match Hashtbl.find_opt t.innermost l with
    | None -> None
    | Some h -> Hashtbl.find_opt t.loops h

  let is_header t l = Hashtbl.mem t.loops l

  let in_loop t ~header ~block =
    match Hashtbl.find_opt t.loops header with
    | None -> false
    | Some lp -> List.exists (String.equal block) lp.blocks

  let depth t l =
    match innermost_loop t l with None -> 0 | Some lp -> lp.depth

  let exits t cfg header =
    match Hashtbl.find_opt t.loops header with
    | None -> []
    | Some lp ->
      let body = SS.of_list lp.blocks in
      List.concat_map
        (fun b ->
          List.filter_map
            (fun s -> if SS.mem s body then None else Some (b, s))
            (Cfg.successors cfg b))
        lp.blocks
end
