(* Word memory of the interpreter, paged so that a fork costs only the
   pages it writes.

   Each {!Layout} segment (data, spill, checkpoint) keeps a table of
   256-word slots indexed from the segment base and grown on demand. A
   slot points at a node of eight 32-word pages, so an aligned word there
   is a slot-table read, a node read and a page read. Every other address
   (unaligned, below the data segment, or past a segment's last slot)
   lives in a small persistent map. Absent words read 0 wherever they
   live.

   [fork] copies slot tables, not nodes or pages: afterwards both
   memories point at the same nodes and neither owns them. A write to a
   page its memory does not own copies the page first (33 words), and
   the node above it too (9 words) when the node is shared, and owns the
   copies. Ownership is a byte per slot of each memory, never a property
   of a node or a page: bit [i] says page [i] of the slot's node may be
   written in place, and a zero byte says the node itself is shared. So
   a shared node or page is never written and the write path takes no
   lock and no atomic. A memory nobody writes (a snapshot, a pilot's
   final state) owns nothing, so any number of domains can fork it at
   once: forking it reads it and nothing more. *)

module IMap = Map.Make (Int)

(* 32-word pages, eight to a node: a fork's first write into memory it
   shares copies 33 words, plus 9 for the node, where one flat 256-word
   page would copy 257. *)
let page_bits = 5

let page_words = 1 lsl page_bits

let page_mask = page_words - 1

let node_bits = 3

let node_pages = 1 lsl node_bits

let node_mask = node_pages - 1

let slot_bits = page_bits + node_bits

(* [Layout.word] is 8: an aligned address has its low 3 bits clear. *)
let word_bits = 3

let page_bytes = page_words lsl word_bits

let slot_bytes = page_bytes lsl node_bits

(* Slot-table entries per segment: 8192 slots of 256 words cover the
   first 16 MB of each segment. The sparse map takes the rest. *)
let max_slots = 8192

(* What an unwritten slot points at. No memory owns them, so nothing
   writes them. *)
let zero_page = Array.make page_words 0

let zero_node = Array.make node_pages zero_page

type seg = {
  base : int;
  mutable slots : int array array array; (* slot -> node -> page *)
  mutable owned : Bytes.t;
      (* per slot, bit [i] where page [i] may be written in place; '\000'
         where the node is shared *)
}

type t = {
  data : seg;
  spill : seg;
  ckpt : seg;
  mutable sparse : int IMap.t;
  mutable owns : bool; (* some [owned] byte is set *)
}

let empty_seg base = { base; slots = [||]; owned = Bytes.empty }

let create () =
  {
    data = empty_seg Layout.data_base;
    spill = empty_seg Layout.spill_base;
    ckpt = empty_seg Layout.ckpt_base;
    sparse = IMap.empty;
    owns = false;
  }

(* The segment of an aligned address at or above [Layout.data_base]. *)
let seg_of m a =
  if a >= Layout.ckpt_base then m.ckpt else if a >= Layout.spill_base then m.spill else m.data

let paged a = a land ((1 lsl word_bits) - 1) = 0 && a >= Layout.data_base

let find0 a map = match IMap.find a map with v -> v | exception Not_found -> 0

let get m a =
  if paged a then begin
    let s = seg_of m a in
    let w = (a - s.base) lsr word_bits in
    let k = w lsr slot_bits in
    if k < Array.length s.slots then
      Array.unsafe_get
        (Array.unsafe_get (Array.unsafe_get s.slots k) ((w lsr page_bits) land node_mask))
        (w land page_mask)
    else if k < max_slots then 0
    else find0 a m.sparse
  end
  else find0 a m.sparse

let grow s k =
  let n = Array.length s.slots in
  let n' = min max_slots (max (k + 1) (2 * n)) in
  let slots = Array.make n' zero_node in
  Array.blit s.slots 0 slots 0 n;
  let owned = Bytes.make n' '\000' in
  Bytes.blit s.owned 0 owned 0 n;
  s.slots <- slots;
  s.owned <- owned

(* Copy-on-write: the first write to page [i] of slot [k] that this
   memory does not own, given the slot's ownership byte [mask]. *)
let own m s k i mask =
  let node =
    if mask = 0 then begin
      let node = Array.copy (Array.unsafe_get s.slots k) in
      Array.unsafe_set s.slots k node;
      node
    end
    else Array.unsafe_get s.slots k
  in
  let page = Array.copy (Array.unsafe_get node i) in
  Array.unsafe_set node i page;
  Bytes.unsafe_set s.owned k (Char.unsafe_chr (mask lor (1 lsl i)));
  m.owns <- true;
  page

let set m a v =
  if paged a then begin
    let s = seg_of m a in
    let w = (a - s.base) lsr word_bits in
    let k = w lsr slot_bits in
    if k < max_slots then begin
      if k >= Array.length s.slots then grow s k;
      let i = (w lsr page_bits) land node_mask in
      let mask = Char.code (Bytes.unsafe_get s.owned k) in
      let page =
        if mask land (1 lsl i) <> 0 then Array.unsafe_get (Array.unsafe_get s.slots k) i
        else own m s k i mask
      in
      Array.unsafe_set page (w land page_mask) v
    end
    else m.sparse <- IMap.add a v m.sparse
  end
  else m.sparse <- IMap.add a v m.sparse

let fork m =
  if m.owns then begin
    List.iter
      (fun s -> Bytes.fill s.owned 0 (Bytes.length s.owned) '\000')
      [ m.data; m.spill; m.ckpt ];
    m.owns <- false
  end;
  let share s =
    { base = s.base; slots = Array.copy s.slots; owned = Bytes.make (Array.length s.slots) '\000' }
  in
  {
    data = share m.data;
    spill = share m.spill;
    ckpt = share m.ckpt;
    sparse = m.sparse;
    owns = false;
  }

(* ------------------------------------------------------------------ *)
(* Address-ordered comparison. Paged and sparse addresses are disjoint
   sets fixed by the address alone, so the lowest difference is the lower
   of the lowest paged one and the lowest sparse one. *)

let node_of s k = if k < Array.length s.slots then Array.unsafe_get s.slots k else zero_node

(* The lowest address in [\[lo, last\]] where two segments differ: nodes
   the two share are skipped whole, then pages they share. *)
let seg_diff ~lo ~last sa sb =
  let n = max (Array.length sa.slots) (Array.length sb.slots) in
  let rec slot k =
    if k >= n then None
    else begin
      let na = node_of sa k and nb = node_of sb k in
      let first = sa.base + (k * slot_bytes) in
      if na == nb || first + slot_bytes <= lo || first > last then slot (k + 1)
      else page na nb first k 0
    end
  and page na nb sfirst k i =
    if i = node_pages then slot (k + 1)
    else begin
      let pa = Array.unsafe_get na i and pb = Array.unsafe_get nb i in
      let first = sfirst + (i * page_bytes) in
      if pa == pb || first + page_bytes <= lo || first > last then page na nb sfirst k (i + 1)
      else word na nb pa pb sfirst k i 0
    end
  and word na nb pa pb sfirst k i j =
    if j = page_words then page na nb sfirst k (i + 1)
    else if Array.unsafe_get pa j = Array.unsafe_get pb j then
      word na nb pa pb sfirst k i (j + 1)
    else begin
      let a = sfirst + (i * page_bytes) + (j lsl word_bits) in
      if a >= lo && a <= last then Some a else word na nb pa pb sfirst k i (j + 1)
    end
  in
  slot 0

let lower x y =
  match (x, y) with
  | Some a, Some b -> Some (min a b)
  | (Some _ as r), None | None, r -> r

let sparse_diff ~lo ~last ma mb =
  if ma == mb then None
  else begin
    let first m other =
      Seq.find (fun (k, v) -> k >= lo && k <= last && v <> find0 k other) (IMap.to_seq m)
      |> Option.map fst
    in
    lower (first ma mb) (first mb ma)
  end

let first_diff ?(lo = min_int) ?hi a b =
  match hi with
  | Some h when h <= lo -> None
  | _ ->
    (* [hi] is exclusive; without it every address up to [max_int] counts. *)
    let last = match hi with Some h -> h - 1 | None -> max_int in
    let paged =
      match seg_diff ~lo ~last a.data b.data with
      | Some _ as r -> r
      | None -> (
        match seg_diff ~lo ~last a.spill b.spill with
        | Some _ as r -> r
        | None -> seg_diff ~lo ~last a.ckpt b.ckpt)
    in
    lower paged (sparse_diff ~lo ~last a.sparse b.sparse)

let bindings m =
  let paged =
    List.fold_left
      (fun acc s ->
        let cells = ref acc in
        for k = Array.length s.slots - 1 downto 0 do
          let node = s.slots.(k) in
          if node != zero_node then
            for i = node_pages - 1 downto 0 do
              let page = node.(i) in
              if page != zero_page then
                for j = page_words - 1 downto 0 do
                  if page.(j) <> 0 then begin
                    let w = (k lsl slot_bits) + (i lsl page_bits) + j in
                    cells := (s.base + (w lsl word_bits), page.(j)) :: !cells
                  end
                done
            done
        done;
        !cells)
      [] [ m.ckpt; m.spill; m.data ]
  in
  let sparse = IMap.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) m.sparse [] in
  List.merge (fun (a, _) (b, _) -> compare a b) paged (List.rev sparse)
