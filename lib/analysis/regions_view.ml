open Turnpike_ir

type region = {
  id : int;
  head : string;
  head_block : Block.t;
  head_rpo : int;
  members : int array;
}

type t = {
  regions : region array;
  region_of : int array;
  has_regions : bool;
  diags : Diag.t list;
}

let check_name = "regions"

let compute cfg dom (func : Func.t) =
  let dom = lazy (dom ()) in
  let fname = func.Func.name in
  let diags = ref [] in
  let emit ?block ?instr severity msg =
    diags := Diag.make ~check:check_name ~severity ~func:fname ?block ?instr msg :: !diags
  in
  (* Boundary markers must head their block; the first block in layout
     order that opens an id is its head. A block the layout order leaves
     out opens no region, whatever its first instruction. *)
  let n = Cfg.num_reachable cfg in
  let id_head : (int, Block.t) Hashtbl.t = Hashtbl.create 16 in
  let opens = Array.make n false and opened = Array.make n 0 in
  Cfg.iter_layout cfg
    (fun k b ->
      Array.iteri
        (fun i instr ->
          match instr with
          | Instr.Boundary id ->
            if i <> 0 then
              emit ~block:b.Block.label ~instr:i Diag.Error
                (Printf.sprintf "boundary marker of region %d is not the first instruction of its block" id)
            else begin
              (match Hashtbl.find_opt id_head id with
              | Some other ->
                emit ~block:b.Block.label Diag.Error
                  (Printf.sprintf "region id %d already used by block %s" id other.Block.label)
              | None -> Hashtbl.replace id_head id b);
              if k >= 0 then begin
                opens.(k) <- true;
                opened.(k) <- id
              end
            end
          | _ -> ())
        b.Block.body);
  let has_regions = Hashtbl.length id_head > 0 in
  let heads =
    Array.of_list
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         (Hashtbl.fold (fun id b acc -> (id, b) :: acc) id_head []))
  in
  let nregions = Array.length heads in
  let index : (int, int) Hashtbl.t = Hashtbl.create nregions in
  Array.iteri (fun q (id, _) -> Hashtbl.replace index id q) heads;
  let region_of = Array.make n (-1) in
  let head_rpo = Array.make nregions (-1) in
  if has_regions then begin
    (* Propagate region membership forward in reverse postorder: a head
       starts its own region, every other reachable block inherits the
       region of its (unique) predecessor. A predecessor later in
       reverse postorder has no region yet. *)
    if not opens.(0) then
      emit ~block:func.Func.entry Diag.Error
        "entry block is not a region head (no boundary marker opens the function)";
    for k = 0 to n - 1 do
      let b = Cfg.rpo_block cfg k in
      if opens.(k) then begin
        let q = Hashtbl.find index opened.(k) in
        region_of.(k) <- q;
        if snd heads.(q) == b then head_rpo.(q) <- k
      end
      else begin
        let npreds = Cfg.rpo_pred_count cfg k in
        if npreds >= 2 then
          emit ~block:b.Block.label Diag.Error
            (Printf.sprintf
               "block has %d predecessors but is not a region head; regions must be single-entry"
               npreds);
        (* the lowest-id region among the predecessors', noting a second *)
        let q = ref (-1) and straddles = ref false in
        Array.iter
          (fun p ->
            let r = region_of.(p) in
            if r >= 0 && r <> !q then
              if !q < 0 then q := r
              else begin
                straddles := true;
                q := min !q r
              end)
          (Cfg.rpo_preds cfg k);
        if !straddles then
          emit ~block:b.Block.label Diag.Error
            "block straddles regions: predecessors belong to different regions";
        region_of.(k) <- !q
      end
    done;
    (* The head must dominate every member: a path into the middle of a
       region would skip its boundary (and its checkpoint prologue). *)
    for k = 0 to n - 1 do
      let q = region_of.(k) in
      if q >= 0 then begin
        let h = head_rpo.(q) in
        if h < 0 || not (Dominance.rpo_dominates (Lazy.force dom) ~dom:h ~sub:k) then
          emit ~block:(Cfg.rpo_label cfg k) Diag.Error
            (Printf.sprintf "region %d head %s does not dominate member block %s"
               (fst heads.(q)) (snd heads.(q)).Block.label (Cfg.rpo_label cfg k))
      end
    done
  end;
  (* Member lists in one pass, head first. *)
  let others = Array.make nregions [] in
  for k = n - 1 downto 0 do
    let q = region_of.(k) in
    if q >= 0 && k <> head_rpo.(q) then others.(q) <- k :: others.(q)
  done;
  let regions =
    Array.mapi
      (fun q (id, (b : Block.t)) ->
        let h = head_rpo.(q) in
        {
          id;
          head = b.Block.label;
          head_block = b;
          head_rpo = h;
          members = Array.of_list (if h >= 0 then h :: others.(q) else others.(q));
        })
      heads
  in
  { regions; region_of; has_regions; diags = Diag.sort !diags }
