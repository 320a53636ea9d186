(* Store-buffer-aware region partitioning (paper §2.1, §4.3.1).

   Region boundaries are pseudo-instructions placed at the start of region
   head blocks. Heads are: the entry block, loop headers (footnote 2 of the
   paper), join blocks, and blocks promoted so that no region exceeds the
   store budget (SB size / 2, so that one region's verification overlaps
   the next region's execution). Every non-head block has exactly one
   predecessor; a region is thus a single-entry tree of whole blocks. *)

open Turnpike_ir

type region = { id : int; head : string; blocks : string list }

type t = {
  regions : region array;
  of_block : (string, int) Hashtbl.t;
}

module SS = Set.Make (String)

let strip func =
  Func.iter_blocks
    (fun b ->
      Block.set_body b
        (List.filter (fun i -> not (Instr.is_boundary i)) (Block.body_list b)))
    func;
  func

(* Split any block holding more than [budget] SB writes into pieces of at
   most [budget] writes each. Fresh blocks are single-pred continuations;
   they are promoted to heads by the caller's budget walk.

   Cut placement matters: a boundary landing in the middle of an
   expression makes its temporaries live across the new region border, so
   eager checkpointing would save them — adding writes that force yet more
   splits (a cascade ending in 2-instruction regions). Each cut is
   therefore placed at the legal position with the FEWEST live registers
   (liveness-aware region formation), never separating an eager
   checkpoint from the definition right above it. *)
let split_blocks func ~budget oversized =
  (* Partitioning may run several times on the same function (the pipeline
     iterates with checkpoints in place), so fresh labels must dodge the
     labels of earlier rounds. *)
  let counter = ref 0 in
  let rec fresh_label base =
    incr counter;
    let l = Printf.sprintf "%s.part%d" base !counter in
    if Hashtbl.mem func.Func.blocks l then fresh_label base else l
  in
  let cfg = Cfg.build func in
  let live = Liveness.compute cfg in
  List.iter
    (fun (b : Block.t) ->
      let body = b.Block.body in
      let n = Array.length body in
      let live_at = Liveness.live_before_each live b in
      (* A cut before position j is legal when it does not separate an
         eager checkpoint from its producing definition. *)
      let legal j =
        j > 0 && j < n
        &&
        match body.(j) with
        | Instr.Ckpt r -> not (List.mem r (Instr.defs body.(j - 1)))
        | _ -> true
      in
      (* Choose cut points: after every [budget]-th write, place the cut at
         the minimal-liveness legal position before the next write. *)
      let cuts = ref [] in
      let count = ref 0 in
      let pending = ref None in
      (* pending = Some p: the budget filled at position p; cut somewhere in
         (p, next_write]. *)
      for j = 0 to n - 1 do
        (match !pending with
        | Some first_candidate when Instr.is_sb_write body.(j) ->
          (* Must cut at some legal position in [first_candidate, j]. *)
          let best = ref None in
          for k = first_candidate to j do
            if legal k then
              match !best with
              | Some (_, sz) when Reg.Set.cardinal live_at.(k) >= sz -> ()
              | _ -> best := Some (k, Reg.Set.cardinal live_at.(k))
          done;
          (match !best with
          | Some (k, _) ->
            cuts := k :: !cuts;
            count := 0;
            pending := None;
            (* The write at j now counts toward the new piece. *)
            incr count
          | None ->
            (* No legal cut (pathological); give up on this window. *)
            pending := None;
            incr count)
        | Some _ -> ()
        | None ->
          if Instr.is_sb_write body.(j) then begin
            incr count;
            if !count >= budget then begin
              pending := Some (j + 1);
              count := 0
            end
          end)
      done;
      match List.rev !cuts with
      | [] -> ()
      | cuts ->
        (* Materialize the pieces: the original block keeps the first
           segment; each further segment becomes a fresh fall-through
           block. *)
        let segments =
          let rec slice start = function
            | [] -> [ Array.to_list (Array.sub body start (n - start)) ]
            | c :: rest -> Array.to_list (Array.sub body start (c - start)) :: slice c rest
          in
          slice 0 cuts
        in
        (match segments with
        | first :: rest ->
          Block.set_body b first;
          let prev = ref b in
          List.iter
            (fun seg ->
              let nb =
                Block.create ~body:(Array.of_list seg) ~term:!prev.Block.term
                  (fresh_label b.Block.label)
              in
              !prev.Block.term <- Block.Jump nb.Block.label;
              Func.add_block func nb ~after:!prev.Block.label;
              prev := nb)
            rest
        | [] -> ()))
    oversized

(* The CFG and liveness that place the cuts are built only when some
   block is over budget. *)
let split_oversized_blocks func ~budget =
  match List.filter (fun b -> Block.num_stores b > budget) (Func.blocks func) with
  | [] -> ()
  | oversized -> split_blocks func ~budget oversized

let mandatory_heads func cfg loops =
  let heads = ref (SS.singleton func.Func.entry) in
  List.iter
    (fun l ->
      if List.length (Cfg.predecessors cfg l) >= 2 then heads := SS.add l !heads;
      if Loop_info.is_header loops l then heads := SS.add l !heads)
    (Cfg.reachable_labels cfg);
  !heads

(* Walk the region trees rooted at the mandatory heads, promoting blocks to
   heads whenever the running SB-write count on the path would exceed the
   budget. Returns the final head set. *)
let budget_heads func cfg heads ~budget =
  let final = ref heads in
  let rec walk l count =
    let b = Func.block func l in
    let w = Block.num_stores b in
    let count =
      if count + w > budget && count > 0 && SS.mem l !final = false then begin
        final := SS.add l !final;
        w
      end
      else count + w
    in
    List.iter
      (fun s ->
        if (not (SS.mem s heads)) && not (SS.mem s !final) then
          (* Single-pred continuation block: keep walking the tree. *)
          walk s count)
      (Block.successors b)
  in
  SS.iter (fun h -> walk h 0) heads;
  (* Unreachable blocks become their own regions so the structure stays
     total. *)
  Func.iter_blocks
    (fun b ->
      if not (Cfg.is_reachable cfg b.Block.label) then
        final := SS.add b.Block.label !final)
    func;
  !final

let insert_boundaries func heads =
  (* Region ids in layout order for readable dumps. *)
  let id = ref (-1) in
  List.iter
    (fun l ->
      if SS.mem l heads then begin
        incr id;
        let b = Func.block func l in
        Block.set_body b (Instr.Boundary !id :: Block.body_list b)
      end)
    (Func.labels func)

let partition ?(budget = 2) func =
  if budget < 1 then invalid_arg "Regions.partition: budget must be >= 1";
  let func = strip func in
  split_oversized_blocks func ~budget;
  let cfg = Cfg.build func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  let heads = mandatory_heads func cfg loops in
  let heads = budget_heads func cfg heads ~budget in
  insert_boundaries func heads;
  cfg

let head_of_block (b : Block.t) =
  match Array.length b.Block.body with
  | 0 -> None
  | _ -> (
    match b.Block.body.(0) with Instr.Boundary id -> Some id | _ -> None)

let of_cfg cfg func =
  let of_block = Hashtbl.create 64 in
  let members = Hashtbl.create 16 in
  let add id l =
    Hashtbl.replace of_block l id;
    let cur = Option.value (Hashtbl.find_opt members id) ~default:[] in
    Hashtbl.replace members id (l :: cur)
  in
  let heads =
    List.filter_map
      (fun (b : Block.t) ->
        match head_of_block b with Some id -> Some (id, b.Block.label) | None -> None)
      (Func.blocks func)
  in
  let rec attach id l =
    add id l;
    List.iter
      (fun s ->
        let sb = Func.block func s in
        if head_of_block sb = None && not (Hashtbl.mem of_block s) then begin
          (match Cfg.predecessors cfg s with
          | [ _ ] -> ()
          | preds ->
            invalid_arg
              (Printf.sprintf
                 "Regions.of_func: non-head block %s has %d predecessors" s
                 (List.length preds)));
          attach id s
        end)
      (Block.successors (Func.block func l))
  in
  List.iter (fun (id, l) -> attach id l) heads;
  (* Any block left unassigned (unreachable, no boundary) gets a fresh
     region of its own to keep lookups total. *)
  let next = ref (List.fold_left (fun a (id, _) -> max a (id + 1)) 0 heads) in
  Func.iter_blocks
    (fun b ->
      if not (Hashtbl.mem of_block b.Block.label) then begin
        add !next b.Block.label;
        incr next
      end)
    func;
  let max_id = Hashtbl.fold (fun _ id acc -> max id acc) of_block (-1) in
  let heads_by_id = Hashtbl.create 16 in
  List.iter (fun (id, l) -> Hashtbl.replace heads_by_id id l) heads;
  let regions =
    Array.init (max_id + 1) (fun id ->
        let blocks = Option.value (Hashtbl.find_opt members id) ~default:[] in
        let head =
          match Hashtbl.find_opt heads_by_id id with
          | Some h -> h
          | None -> ( match blocks with l :: _ -> l | [] -> "")
        in
        { id; head; blocks = List.rev blocks })
  in
  { regions; of_block }

let of_func func = of_cfg (Cfg.build func) func

let region_of t l = Hashtbl.find_opt t.of_block l

let region t id =
  if id < 0 || id >= Array.length t.regions then None else Some t.regions.(id)

let num_regions t = Array.length t.regions

let regions t = Array.to_list t.regions

(* Worst path SB writes within one region tree. *)
let worst_path_sb_writes func t id =
  match region t id with
  | None -> 0
  | Some r ->
    (* An edge to the region's own head is a back edge crossing the
       boundary (a new dynamic instance), so it is an exit edge. *)
    let in_region l = region_of t l = Some id && not (String.equal l r.head) in
    let rec walk l =
      let b = Func.block func l in
      let w = Block.num_stores b in
      let succs = List.filter in_region (Block.successors b) in
      w + List.fold_left (fun acc s -> max acc (walk s)) 0 succs
    in
    walk r.head

let worst_region_path func t =
  let worst = ref 0 in
  Array.iter (fun r -> worst := max !worst (worst_path_sb_writes func t r.id)) t.regions;
  !worst
