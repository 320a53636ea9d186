(* Iterative dominator computation (Cooper-Harvey-Kennedy) over the RPO
   numbers of the reachable blocks: the tree is one int array, and a
   dominance query walks it upward by index (a dominator's RPO number is
   below its dominee's, so the walk stops as soon as it passes [dom]). *)

type t = {
  cfg : Cfg.t;
  idom : int array;
      (* by RPO number; the entry (0) maps to itself. -1 until decided,
         and for good on a block whose only predecessors the layout order
         leaves out (hand-built IR), which then has no dominator *)
}

let compute cfg =
  let n = Cfg.num_reachable cfg in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect x y =
    if x = y then x else if x > y then intersect idom.(x) y else intersect x idom.(y)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let new_idom =
        Array.fold_left
          (fun acc p -> if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) (Cfg.rpo_preds cfg k)
      in
      if new_idom >= 0 && new_idom <> idom.(k) then begin
        idom.(k) <- new_idom;
        changed := true
      end
    done
  done;
  { cfg; idom }

let idom t l =
  match Cfg.rpo_number t.cfg l with
  | Some k when k > 0 && t.idom.(k) >= 0 -> Some (Cfg.rpo_label t.cfg t.idom.(k))
  | Some _ -> None (* entry, or no predecessor in the layout order *)
  | None -> None (* unreachable *)

let dominates t ~dom ~sub =
  match (Cfg.rpo_number t.cfg dom, Cfg.rpo_number t.cfg sub) with
  | Some d, Some s ->
    let x = ref s in
    while !x > d do
      x := t.idom.(!x)
    done;
    !x = d
  | _ -> false

let strictly_dominates t ~dom ~sub =
  (not (String.equal dom sub)) && dominates t ~dom ~sub

let dominators t l =
  match Cfg.rpo_number t.cfg l with
  | None -> []
  | Some k ->
    let rec up x acc =
      let d = t.idom.(x) in
      if x = 0 || d < 0 then acc else up d (Cfg.rpo_label t.cfg d :: acc)
    in
    l :: up k []
