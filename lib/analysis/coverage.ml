(* Not-covered sets per block entry, by RPO number, on {!Bitset}s: the
   universe is the registers the reachable blocks define or checkpoint
   (anything else is untouched, hence covered).

   The sequential transfer (a checkpoint covers, a definition stales)
   collapses to a last-event-wins summary per register, so each block
   contributes a gen set (last touch was a definition) and a kill set
   (last touch was a checkpoint), computed once instead of per fixpoint
   iteration: out = (in \ kill) ∪ gen. The summary depends on the order
   of a block's instructions, which is why a scheduling pass staleness-
   kills the memoized copy although it keeps liveness. *)

open Turnpike_ir

type t = Bitset.t array (* not-covered at entry, by RPO number *)

let compute cfg =
  let n = Cfg.num_reachable cfg in
  let max_id = ref 0 in
  let bump r = if r > !max_id then max_id := r in
  for k = 0 to n - 1 do
    Array.iter
      (fun i ->
        (match i with Instr.Ckpt r -> bump r | _ -> ());
        Instr.iter_defs bump i)
      (Cfg.rpo_block cfg k).Block.body
  done;
  let max_id = !max_id in
  let sets () = Array.init n (fun _ -> Bitset.create ~max_id) in
  let gen = sets () and kill = sets () in
  for k = 0 to n - 1 do
    let gen = gen.(k) and kill = kill.(k) in
    Array.iter
      (fun i ->
        (match i with
        | Instr.Ckpt r ->
          Bitset.add kill r;
          Bitset.remove gen r
        | _ -> ());
        Instr.iter_defs
          (fun r ->
            Bitset.add gen r;
            Bitset.remove kill r)
          i)
      (Cfg.rpo_block cfg k).Block.body
  done;
  (* Sets only grow from empty, so unioning the predecessors into the old
     entry set recomputes it. The entry (RPO 0) stays all-covered
     whatever back edges reach it. *)
  let inn = sets () and out = sets () in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      if k > 0 then
        Array.iter (fun p -> Bitset.union_into ~dst:inn.(k) out.(p)) (Cfg.rpo_preds cfg k);
      if Bitset.transfer_into ~dst:out.(k) ~gen:gen.(k) ~kill:kill.(k) inn.(k) then
        changed := true
    done
  done;
  inn

let uncovered t k r = Bitset.mem t.(k) r
