(* Pareto dominance (minimization) and the non-dominated subset. Quadratic
   in the point count, which is fine at design-grid sizes (tens to a few
   hundred points); input order is preserved everywhere so frontier output
   is deterministic. *)

let dominates a b =
  let n = Array.length a in
  if Array.length b <> n then
    invalid_arg "Pareto.dominates: objective vectors differ in length";
  let no_worse = ref true and better = ref false in
  for i = 0 to n - 1 do
    (* NaN comparisons are all false: a NaN axis blocks [no_worse], so a
       point with an unmeasured objective is never claimed dominated. *)
    if not (a.(i) <= b.(i)) then no_worse := false;
    if a.(i) < b.(i) then better := true
  done;
  !no_worse && !better

let frontier ~objectives points =
  let objs = Array.of_list (List.map objectives points) in
  List.filteri
    (fun i _ -> not (Array.exists (fun oj -> dominates oj objs.(i)) objs))
    points
