let is_digit c = c >= '0' && c <= '9'

(* Natural order: compare run-by-run; a digit run against a digit run is
   compared numerically (ignore leading zeros, then longer significant
   run wins, then byte-wise), anything else byte-wise. Top-level
   recursion, so a comparison allocates nothing: the tables sort
   hundreds of tied rows by key. *)
let rec skip_zeros s l i = if i < l && s.[i] = '0' then skip_zeros s l (i + 1) else i

let rec run_end s l i = if i < l && is_digit s.[i] then run_end s l (i + 1) else i

let rec go a b la lb i j =
  if i >= la && j >= lb then compare a b
  else if i >= la then -1
  else if j >= lb then 1
  else if is_digit a.[i] && is_digit b.[j] then begin
    let ea = run_end a la i and eb = run_end b lb j in
    let sa = skip_zeros a ea i and sb = skip_zeros b eb j in
    let na = ea - sa and nb = eb - sb in
    if na <> nb then compare na nb else digits a b la lb ea eb sa sb
  end
  else if a.[i] <> b.[j] then Char.compare a.[i] b.[j]
  else go a b la lb (i + 1) (j + 1)

and digits a b la lb ea eb p q =
  if p >= ea then go a b la lb ea eb
  else if a.[p] <> b.[q] then Char.compare a.[p] b.[q]
  else digits a b la lb ea eb (p + 1) (q + 1)

let key_compare a b = go a b (String.length a) (String.length b) 0 0

let ranks v =
  let n = Array.length v in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare v.(i) v.(j)) order;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && v.(order.(!j + 1)) = v.(order.(!i)) do incr j done;
    (* positions !i..!j (0-based) share the mean 1-based rank *)
    let mean = (float_of_int (!i + !j)) /. 2.0 +. 1.0 in
    for p = !i to !j do r.(order.(p)) <- mean done;
    i := !j + 1
  done;
  r

let spearman a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Rank.spearman: length mismatch";
  if n = 0 then 1.0
  else begin
    let ra = ranks a and rb = ranks b in
    let mean v = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
    let ma = mean ra and mb = mean rb in
    let cov = ref 0.0 and va = ref 0.0 and vb = ref 0.0 in
    for i = 0 to n - 1 do
      let da = ra.(i) -. ma and db = rb.(i) -. mb in
      cov := !cov +. (da *. db);
      va := !va +. (da *. da);
      vb := !vb +. (db *. db)
    done;
    if !va = 0.0 && !vb = 0.0 then 1.0
    else if !va = 0.0 || !vb = 0.0 then 0.0
    else !cov /. sqrt (!va *. !vb)
  end

let top_k_overlap ~k a b =
  let take n l =
    let rec go n = function
      | x :: tl when n > 0 -> x :: go (n - 1) tl
      | _ -> []
    in
    go n l
  in
  let denom = min k (min (List.length a) (List.length b)) in
  if denom <= 0 then (0, 0)
  else begin
    let ta = take denom a and tb = take denom b in
    let hits = List.length (List.filter (fun x -> List.mem x tb) ta) in
    (hits, denom)
  end

let agreement ~k a b =
  let inter keep other = List.filter (fun x -> List.mem x other) keep in
  let a' = inter a b and b' = inter b a in
  let pos l = Array.of_list (List.mapi (fun i _ -> float_of_int i) l) in
  (* rank vectors aligned on a''s key order: position in a' is the
     identity ramp; position in b' is looked up per key *)
  let pos_b =
    Array.of_list
      (List.map
         (fun x ->
           let rec find i = function
             | y :: tl -> if String.equal x y then i else find (i + 1) tl
             | [] -> 0
           in
           float_of_int (find 0 b'))
         a')
  in
  (spearman (pos a') pos_b, top_k_overlap ~k a' b')
