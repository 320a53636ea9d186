(* Word memory of the interpreter, paged so that a fork costs only the
   pages it writes.

   Each {!Layout} segment (data, spill, checkpoint) keeps a table of
   fixed-size word pages indexed from the segment base and grown on
   demand; an aligned word there is a page-table read and a page read.
   Every other address (unaligned, below the data segment, or past a
   segment's last page slot) lives in a small persistent map. Absent
   words read 0 wherever they live.

   [fork] copies page tables, not pages: afterwards both memories point
   at the same page arrays and neither owns them. A write to a page its
   memory does not own copies the page first and owns the copy.
   Ownership is a flag per page-table slot of each memory, never a
   property of the page, so a shared page is never written and the write
   path takes no lock and no atomic. A memory nobody writes (a snapshot,
   a pilot's final state) owns no page, so any number of domains can fork
   it at once: forking it reads it and nothing more. *)

module IMap = Map.Make (Int)

(* 256-word pages: the largest block the minor heap allocates, so a
   copy-on-write page is a minor allocation, not a major one. *)
let page_bits = 8

let page_words = 1 lsl page_bits

let page_mask = page_words - 1

(* [Layout.word] is 8: an aligned address has its low 3 bits clear. *)
let word_bits = 3

let page_bytes = page_words lsl word_bits

(* Page-table slots per segment: 8192 pages of 256 words cover the first
   16 MB of each segment. The sparse map takes the rest. *)
let max_pages = 8192

(* What an unwritten slot points at. No memory owns it, so nothing
   writes it. *)
let zero_page = Array.make page_words 0

type seg = {
  base : int;
  mutable pages : int array array;
  mutable owned : Bytes.t; (* '\001' where this memory may write in place *)
}

type t = {
  data : seg;
  spill : seg;
  ckpt : seg;
  mutable sparse : int IMap.t;
  mutable owns : bool; (* some [owned] flag is set *)
}

let empty_seg base = { base; pages = [||]; owned = Bytes.empty }

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
    let p = w lsr page_bits in
    if p < Array.length s.pages then
      Array.unsafe_get (Array.unsafe_get s.pages p) (w land page_mask)
    else if p < max_pages then 0
    else find0 a m.sparse
  end
  else find0 a m.sparse

let grow s p =
  let n = Array.length s.pages in
  let n' = min max_pages (max (p + 1) (2 * n)) in
  let pages = Array.make n' zero_page in
  Array.blit s.pages 0 pages 0 n;
  let owned = Bytes.make n' '\000' in
  Bytes.blit s.owned 0 owned 0 n;
  s.pages <- pages;
  s.owned <- owned

(* Copy-on-write: the first write to a slot this memory does not own. *)
let own m s p =
  let page = Array.copy s.pages.(p) in
  s.pages.(p) <- page;
  Bytes.set s.owned p '\001';
  m.owns <- true;
  page

let set m a v =
  if paged a then begin
    let s = seg_of m a in
    let w = (a - s.base) lsr word_bits in
    let p = w lsr page_bits in
    if p < max_pages then begin
      if p >= Array.length s.pages then grow s p;
      let page =
        if Bytes.unsafe_get s.owned p = '\001' then Array.unsafe_get s.pages p else own m s p
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
    { base = s.base; pages = Array.copy s.pages; owned = Bytes.make (Array.length s.pages) '\000' }
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

let page_of s p = if p < Array.length s.pages then Array.unsafe_get s.pages p else zero_page

(* The lowest address in [\[lo, last\]] where two segments differ. *)
let seg_diff ~lo ~last sa sb =
  let n = max (Array.length sa.pages) (Array.length sb.pages) in
  let rec page p =
    if p >= n then None
    else begin
      let pa = page_of sa p and pb = page_of sb p in
      let first = sa.base + (p * page_bytes) in
      if pa == pb || first + page_bytes <= lo || first > last then page (p + 1)
      else word pa pb first p 0
    end
  and word pa pb first p i =
    if i = page_words then page (p + 1)
    else if Array.unsafe_get pa i = Array.unsafe_get pb i then word pa pb first p (i + 1)
    else begin
      let a = first + (i lsl word_bits) in
      if a >= lo && a <= last then Some a else word pa pb first p (i + 1)
    end
  in
  page 0

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
        for p = Array.length s.pages - 1 downto 0 do
          let page = s.pages.(p) in
          if page != zero_page then
            for i = page_words - 1 downto 0 do
              if page.(i) <> 0 then
                cells := (s.base + (((p lsl page_bits) + i) lsl word_bits), page.(i)) :: !cells
            done
        done;
        !cells)
      [] [ m.ckpt; m.spill; m.data ]
  in
  let sparse = IMap.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) m.sparse [] in
  List.merge (fun (a, _) (b, _) -> compare a b) paged (List.rev sparse)
