(* Set-associative write-back, write-allocate cache with true-LRU
   replacement. Timing is supplied by the enclosing hierarchy; this module
   only tracks hit/miss state.

   The lines are three flat arrays indexed by [set * assoc + way], so a
   probe scans consecutive ints. A
   line's LRU stamp is the tick of its last access, and 0 while the line
   is invalid: lines never go invalid once filled, and every access stamps
   a fresh tick, so the victim (the last invalid way, else the least
   recently used) is the last way with the smallest stamp. *)

type t = {
  name : string;
  assoc : int;
  tags : int array;
  lru : int array; (* tick of the line's last access; 0 = invalid *)
  dirty : Bytes.t; (* '\001' for a dirty line *)
  set_mask : int;
  set_bits : int;
  line_bits : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v / 2) in
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Cache: size must be a power of two";
  go 0 n

let create ~name ~size_bytes ~assoc ~line_bytes =
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc*line";
  let n_sets = size_bytes / (assoc * line_bytes) in
  let set_bits = log2_exact n_sets and line_bits = log2_exact line_bytes in
  let lines = n_sets * assoc in
  {
    name;
    assoc;
    tags = Array.make lines 0;
    lru = Array.make lines 0;
    dirty = Bytes.make lines '\000';
    set_mask = n_sets - 1;
    set_bits;
    line_bits;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

let access t ~write addr =
  let line_addr = addr lsr t.line_bits in
  let first = (line_addr land t.set_mask) * t.assoc in
  let stop = first + t.assoc in
  let tag = line_addr lsr t.set_bits in
  let tags = t.tags and lru = t.lru in
  (* [first, stop) lies inside the arrays: [set_mask] keeps the set index
     below the number of sets. A tag is resident in at most one valid
     way. *)
  let i = ref first in
  while !i < stop && not (Array.unsafe_get tags !i = tag && Array.unsafe_get lru !i <> 0) do
    incr i
  done;
  if !i < stop then begin
    touch t !i;
    if write then Bytes.unsafe_set t.dirty !i '\001';
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref first in
    for w = first + 1 to stop - 1 do
      if Array.unsafe_get lru w <= Array.unsafe_get lru !victim then victim := w
    done;
    let v = !victim in
    (* Only a valid line was ever written, so a dirty victim is valid. *)
    if Bytes.unsafe_get t.dirty v = '\001' then t.writebacks <- t.writebacks + 1;
    Array.unsafe_set tags v tag;
    Bytes.unsafe_set t.dirty v (if write then '\001' else '\000');
    touch t v;
    `Miss
  end

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
