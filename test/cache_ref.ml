(* Reference cache for differential tests: the [Cache] that the flat-array
   version in [Turnpike_arch] replaced, kept as it was. One mutable record
   per line; the same victim rule (the last invalid way, else the least
   recently used). The new version must report the same hit or miss and
   the same counters on every access sequence. *)

(* Set-associative write-back, write-allocate cache with true-LRU
   replacement. Timing is supplied by the enclosing hierarchy; this module
   only tracks hit/miss state. *)

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  sets : line array array;
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
  let sets =
    Array.init n_sets (fun _ ->
        Array.init assoc (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }))
  in
  { name; sets; set_bits; line_bits; tick = 0; hits = 0; misses = 0; writebacks = 0 }

let touch t line =
  t.tick <- t.tick + 1;
  line.lru <- t.tick

let access t ~write addr =
  let line_addr = addr lsr t.line_bits in
  let set = t.sets.(line_addr land ((1 lsl t.set_bits) - 1)) in
  let tag = line_addr lsr t.set_bits in
  let ways = Array.length set in
  (* A tag is resident in at most one way. *)
  let w = ref 0 in
  while !w < ways && not (set.(!w).valid && set.(!w).tag = tag) do
    incr w
  done;
  if !w < ways then begin
    let l = set.(!w) in
    touch t l;
    if write then l.dirty <- true;
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Victim = least recently used (invalid lines first). *)
    let victim = ref 0 in
    for w = 0 to ways - 1 do
      let l = set.(w) and v = set.(!victim) in
      if not l.valid then victim := w
      else if v.valid && l.lru < v.lru then victim := w
    done;
    let v = set.(!victim) in
    if v.valid && v.dirty then t.writebacks <- t.writebacks + 1;
    v.valid <- true;
    v.tag <- tag;
    v.dirty <- write;
    touch t v;
    `Miss
  end

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
