(* The graph is built on layout positions: one label table, then every
   edge and the DFS work on ints, and the label-keyed answers are read
   out of arrays. *)

type t = {
  func : Func.t;
  pos : (string, int) Hashtbl.t; (* label -> layout position *)
  preds : string list array; (* by layout position *)
  dangling : (string * string list) list;
      (* predecessors of successor labels the function lacks (only
         unreachable blocks can name one: the DFS raises on it) *)
  rpo : string array;
  rpo_of_pos : int array; (* -1 for unreachable blocks *)
  succ_rpo : int array array;
  pred_rpo : int array array;
}

let build func =
  let order = Func.labels func in
  let listed = List.length order in
  let pos = Hashtbl.create (2 * listed) in
  List.iteri (fun i l -> Hashtbl.replace pos l i) order;
  (* Hand-built IR can list a block twice or leave one out of the layout
     order. The DFS still reaches an unlisted block by label, so it gets
     a position after the listed ones, but it names no predecessors: only
     listed blocks are walked in layout order. A label listed twice is
     known by its last position; the DFS never visits the first. *)
  let unlisted =
    if Hashtbl.length pos = listed && Hashtbl.length func.Func.blocks = listed then []
    else
      Hashtbl.fold
        (fun l _ acc -> if Hashtbl.mem pos l then acc else l :: acc)
        func.Func.blocks []
  in
  List.iteri (fun i l -> Hashtbl.replace pos l (listed + i)) unlisted;
  let labels = Array.of_list (order @ unlisted) in
  let n = Array.length labels in
  let succ_labels = Array.map (fun l -> Block.successors (Func.block func l)) labels in
  let succ = Array.map (List.map (fun s -> Option.value (Hashtbl.find_opt pos s) ~default:(-1))) succ_labels in
  (* Predecessors in reverse layout order, as a label-keyed table filled
     in layout order would list them, by label and by position. *)
  let preds = Array.make n [] and pred_pos = Array.make n [] and dangling = ref [] in
  for i = 0 to listed - 1 do
    List.iter2
      (fun s si ->
        if si >= 0 then begin
          preds.(si) <- labels.(i) :: preds.(si);
          pred_pos.(si) <- i :: pred_pos.(si)
        end
        else
          let cur = Option.value (List.assoc_opt s !dangling) ~default:[] in
          dangling := (s, labels.(i) :: cur) :: List.remove_assoc s !dangling)
      succ_labels.(i) succ.(i)
  done;
  (* Post-order DFS from entry; reverse for RPO. Unreachable blocks are
     excluded from the RPO but remain in the function. *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter2
        (fun s si -> if si >= 0 then dfs si else ignore (Func.block func s))
        succ_labels.(i) succ.(i);
      post := i :: !post
    end
  in
  (match Hashtbl.find_opt pos func.Func.entry with
  | Some i -> dfs i
  | None -> ignore (Func.block func func.Func.entry));
  let rpo = Array.of_list !post in
  let rpo_of_pos = Array.make n (-1) in
  Array.iteri (fun k i -> rpo_of_pos.(i) <- k) rpo;
  (* The same graph on RPO numbers, for the dense analyses. *)
  let numbers ps =
    Array.of_list (List.filter (fun k -> k >= 0) (List.map (fun i -> rpo_of_pos.(i)) ps))
  in
  {
    func;
    pos;
    preds;
    dangling = !dangling;
    rpo = Array.map (fun i -> labels.(i)) rpo;
    rpo_of_pos;
    succ_rpo = Array.map (fun i -> numbers succ.(i)) rpo;
    pred_rpo = Array.map (fun i -> numbers pred_pos.(i)) rpo;
  }

let predecessors t l =
  match Hashtbl.find_opt t.pos l with
  | Some i -> t.preds.(i)
  | None -> Option.value (List.assoc_opt l t.dangling) ~default:[]

let successors t l = Block.successors (Func.block t.func l)

let reverse_postorder t = Array.to_list t.rpo

let postorder t = List.rev (Array.to_list t.rpo)

let rpo_number t l =
  match Hashtbl.find_opt t.pos l with
  | Some i when t.rpo_of_pos.(i) >= 0 -> Some t.rpo_of_pos.(i)
  | _ -> None

let is_reachable t l = rpo_number t l <> None

let reachable_labels t = Array.to_list t.rpo

let is_back_edge_candidate t ~src ~dst =
  match (rpo_number t src, rpo_number t dst) with
  | Some a, Some b -> b <= a
  | _ -> false

let num_reachable t = Array.length t.rpo

let rpo_label t i = t.rpo.(i)

let rpo_succs t i = t.succ_rpo.(i)

let rpo_preds t i = t.pred_rpo.(i)
