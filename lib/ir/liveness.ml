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
