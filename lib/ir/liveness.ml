(* Classic backward liveness over registers, plus a per-instruction view
   used by checkpoint insertion and pruning.

   Most passes and the per-pass checker ask for liveness, so the fixpoint
   is on the compiler's hot path. Over generated programs an unchecked
   compile computed it 7.9 times when every consumer built its own; with
   one per partition round and one for region metadata's two consumers
   it computes it 6.0 times (7.2 with the per-pass checker, was 9.1).
   Each run therefore stays cheap: it works on the CFG's dense view, one
   {!Bitset} per reachable block indexed by RPO number, over a compacted
   id universe (physical registers keep their ids, virtuals are shifted
   down next to them), updated in place in postorder until no live-in
   set moves. A block's public tree set is built only when
   [live_in]/[live_out] first asks for it. *)

type t = {
  cfg : Cfg.t;
  gap : int; (* compacted id of the first virtual register *)
  live_in : Bitset.t array; (* by RPO number *)
  live_out : Bitset.t array;
  (* materialized on first query; a racing second domain only rebuilds
     an equal set *)
  in_sets : Reg.Set.t option array;
  out_sets : Reg.Set.t option array;
}

let compute cfg =
  let n = Cfg.num_reachable cfg in
  let blocks = Array.init n (Cfg.rpo_block cfg) in
  let max_phys = ref 0 in
  let max_virt = ref (-1) in
  let span r =
    if Reg.is_virtual r then (if r > !max_virt then max_virt := r)
    else if r > !max_phys then max_phys := r
  in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          Instr.iter_defs span i;
          Instr.iter_uses span i)
        b.Block.body;
      List.iter span (Block.term_uses b))
    blocks;
  let gap = !max_phys + 1 in
  let rid r = if Reg.is_virtual r then r - Reg.virt_base + gap else r in
  let maxid =
    if !max_virt < 0 then !max_phys else gap + (!max_virt - Reg.virt_base)
  in
  let empty () = Bitset.create ~max_id:maxid in
  let use = Array.init n (fun _ -> empty ()) and def = Array.init n (fun _ -> empty ()) in
  Array.iteri
    (fun k b ->
      let use = use.(k) and def = def.(k) in
      let read r =
        let r = rid r in
        if not (Bitset.mem def r) then Bitset.add use r
      in
      Array.iter
        (fun i ->
          Instr.iter_uses read i;
          Instr.iter_defs (fun r -> Bitset.add def (rid r)) i)
        b.Block.body;
      List.iter read (Block.term_uses b))
    blocks;
  let live_in = Array.init n (fun _ -> empty ()) in
  let live_out = Array.init n (fun _ -> empty ()) in
  (* Sets only grow from empty, so unioning the successors into the old
     live-out recomputes it, and a pass in which no live-in moved saw
     every live-out built from final live-ins. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let out = live_out.(k) in
      Array.iter (fun s -> Bitset.union_into ~dst:out live_in.(s)) (Cfg.rpo_succs cfg k);
      if Bitset.transfer_into ~dst:live_in.(k) ~gen:use.(k) ~kill:def.(k) out then
        changed := true
    done
  done;
  { cfg; gap; live_in; live_out; in_sets = Array.make n None; out_sets = Array.make n None }

(* Inverse of the compaction [compute] applies. *)
let reg_of_id t id = if id < t.gap then id else id - t.gap + Reg.virt_base

let materialize t bits sets l =
  match Cfg.rpo_number t.cfg l with
  | None -> Reg.Set.empty
  | Some k -> (
    match sets.(k) with
    | Some s -> s
    | None ->
      (* one [of_list] builds the tree in about half the time of adding
         the members one by one *)
      let regs = ref [] in
      Bitset.iter (fun id -> regs := reg_of_id t id :: !regs) bits.(k);
      let s = Reg.Set.of_list !regs in
      sets.(k) <- Some s;
      s)

let live_in t l = materialize t t.live_in t.in_sets l

let live_out t l = materialize t t.live_out t.out_sets l

(* A physical id at or above [gap] names no register of the function and
   would read a virtual register's bit. *)
let mem t bits k r =
  if Reg.is_virtual r then Bitset.mem bits.(k) (r - Reg.virt_base + t.gap)
  else r < t.gap && Bitset.mem bits.(k) r

let mem_live_in t k r = mem t t.live_in k r

let mem_live_out t k r = mem t t.live_out k r

let iter_live_in t k f = Bitset.iter (fun id -> f (reg_of_id t id)) t.live_in.(k)

let iter_live_out t k f = Bitset.iter (fun id -> f (reg_of_id t id)) t.live_out.(k)

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
