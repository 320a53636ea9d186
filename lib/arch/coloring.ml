(* Hardware coloring (paper §4.3.2): a pool of [Layout.colors] alternative
   checkpoint storage locations per register, so that checkpoint stores can
   be released to cache without verification while the previously verified
   checkpoint value stays intact. Three logical maps: Available (free
   colors), Used (per un-verified region) and Verified.

   The three maps are one flat int cell per (register, color): [free],
   [verified], or the dynamic region that uses it. A log keeps every
   coloring of a region not yet verified, in assignment order, so a
   verification or a discard visits only the registers its regions
   colored. *)

let free = min_int
let verified = min_int + 1

type t = {
  nregs : int;
  colors : int;
  cells : int array; (* cells.(reg * colors + color) *)
  mutable log : int array; (* (region, reg, color) triples, oldest first *)
  mutable logged : int; (* triples in [log] *)
  mutable fast_assigned : int;
  mutable fallbacks : int;
}

let create ?(colors = Turnpike_ir.Layout.colors) ~nregs () =
  if nregs <= 0 then invalid_arg "Coloring.create: nregs must be positive";
  if colors <= 0 then invalid_arg "Coloring.create: colors must be positive";
  {
    nregs;
    colors;
    cells = Array.make (nregs * colors) free;
    log = Array.make 48 0;
    logged = 0;
    fast_assigned = 0;
    fallbacks = 0;
  }

let copy t = { t with cells = Array.copy t.cells; log = Array.copy t.log }

let in_range t reg = reg >= 0 && reg < t.nregs

(* The first color of [reg] whose cell holds [v], or -1. *)
let find t ~reg v =
  let base = reg * t.colors in
  let c = ref 0 in
  while !c < t.colors && t.cells.(base + !c) <> v do
    incr c
  done;
  if !c < t.colors then !c else -1

(* Every verified color of [reg] except [keep] returns to the pool. *)
let free_verified t ~reg ~keep =
  let base = reg * t.colors in
  for c = 0 to t.colors - 1 do
    if c <> keep && t.cells.(base + c) = verified then t.cells.(base + c) <- free
  done

let log_coloring t ~region ~reg ~color =
  let k = 3 * t.logged in
  if k = Array.length t.log then begin
    let grown = Array.make (2 * k) 0 in
    Array.blit t.log 0 grown 0 k;
    t.log <- grown
  end;
  t.log.(k) <- region;
  t.log.(k + 1) <- reg;
  t.log.(k + 2) <- color;
  t.logged <- t.logged + 1

let try_assign t ~reg ~region =
  if not (in_range t reg) then None
  else
    match find t ~reg free with
    | -1 ->
      t.fallbacks <- t.fallbacks + 1;
      None
    | c ->
      t.cells.((reg * t.colors) + c) <- region;
      log_coloring t ~region ~reg ~color:c;
      t.fast_assigned <- t.fast_assigned + 1;
      Some c

(* Log entry [i] moves to slot [kept]: the compaction step of
   {!on_region_verified} and {!discard_unverified}, which drop the entries
   they consume and keep the others in order. *)
let keep_entry t ~i ~kept =
  if kept <> i then begin
    let src = 3 * i and dst = 3 * kept in
    t.log.(dst) <- t.log.(src);
    t.log.(dst + 1) <- t.log.(src + 1);
    t.log.(dst + 2) <- t.log.(src + 2)
  end

let on_region_verified t ~region =
  (* The region's colorings, in assignment order: each color becomes its
     register's verified one and the color verified before it returns to
     the pool, so a register colored twice ends with its newest checkpoint
     verified and no color left held by a verified region. A logged color
     that no longer holds the region (a fallback drain took it) is
     skipped. Runs at every region verification, so it loops rather than
     allocating closures. *)
  let kept = ref 0 in
  for i = 0 to t.logged - 1 do
    if t.log.(3 * i) <> region then begin
      keep_entry t ~i ~kept:!kept;
      incr kept
    end
    else begin
      let reg = t.log.((3 * i) + 1) and color = t.log.((3 * i) + 2) in
      let cell = (reg * t.colors) + color in
      if t.cells.(cell) = region then begin
        free_verified t ~reg ~keep:color;
        t.cells.(cell) <- verified
      end
    end
  done;
  t.logged <- !kept

let color_of t ~reg v =
  if not (in_range t reg) then None
  else match find t ~reg v with -1 -> None | c -> Some c

let verified_color t ~reg = color_of t ~reg verified

let used_color t ~reg ~region = color_of t ~reg region

let free_color t ~reg = color_of t ~reg free

let force_verified t ~reg ~color =
  (* A quarantined (fallback) checkpoint drains into [color] at its
     region's verification: that slot becomes the verified storage and any
     other verified color returns to the pool. *)
  if in_range t reg then begin
    if color < 0 || color >= t.colors then invalid_arg "index out of bounds";
    free_verified t ~reg ~keep:color;
    t.cells.((reg * t.colors) + color) <- verified
  end

let invalidate_verified t ~reg =
  (* A quarantined (fallback) checkpoint of [reg] just verified: the base
     slot now holds the verified value, so any previously verified color
     returns to the pool. *)
  if in_range t reg then free_verified t ~reg ~keep:(-1)

let discard_unverified t ~regions =
  (* Error recovery: colors assigned by regions that will be re-executed
     (or were corrupted) return to the pool. *)
  let kept = ref 0 in
  for i = 0 to t.logged - 1 do
    let region = t.log.(3 * i) in
    if not (List.mem region regions) then begin
      keep_entry t ~i ~kept:!kept;
      incr kept
    end
    else begin
      let cell = (t.log.((3 * i) + 1) * t.colors) + t.log.((3 * i) + 2) in
      if t.cells.(cell) = region then t.cells.(cell) <- free
    end
  done;
  t.logged <- !kept

let fast_assigned t = t.fast_assigned
let fallbacks t = t.fallbacks
