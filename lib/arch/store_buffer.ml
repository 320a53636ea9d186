(* Gated store buffer (GSB). Under verification (Turnstile/Turnpike), an
   entry allocated by a committed store is quarantined until the store's
   region is verified error-free; entries then drain to L1 one per cycle.
   In baseline mode entries are given a release time at allocation.

   The entries live in fixed-size parallel arrays, oldest first in slots
   [0, count), so the per-cycle operations scan a few ints and allocate
   nothing. A quarantined entry (no release time yet) holds [quarantined]
   in [release_at]. [earliest] is kept equal to the smallest [release_at]
   by every operation, so the timing models learn when the next release is
   due in O(1), and [release_up_to] skips its scan when none is. *)

let quarantined = max_int

type t = {
  size : int;
  addr : int array;
  region : int array; (* dynamic region sequence number *)
  is_ckpt : bool array;
  release_at : int array;
  mutable earliest : int; (* min of [release_at] over [0, count) *)
  mutable count : int;
  mutable occupancy_samples : int;
  mutable occupancy_total : int;
}

let create size =
  if size <= 0 then invalid_arg "Store_buffer.create: size must be positive";
  {
    size;
    addr = Array.make size 0;
    region = Array.make size 0;
    is_ckpt = Array.make size false;
    release_at = Array.make size quarantined;
    earliest = quarantined;
    count = 0;
    occupancy_samples = 0;
    occupancy_total = 0;
  }

let occupancy t = t.count

let is_full t = t.count >= t.size

let sample t =
  t.occupancy_samples <- t.occupancy_samples + 1;
  t.occupancy_total <- t.occupancy_total + t.count

let mean_occupancy t =
  if t.occupancy_samples = 0 then 0.0
  else float_of_int t.occupancy_total /. float_of_int t.occupancy_samples

let alloc t ~addr ~region ~is_ckpt ~release_at =
  if is_full t then invalid_arg "Store_buffer.alloc: buffer full";
  let i = t.count in
  t.addr.(i) <- addr;
  t.region.(i) <- region;
  t.is_ckpt.(i) <- is_ckpt;
  let r = match release_at with Some r -> r | None -> quarantined in
  t.release_at.(i) <- r;
  if r < t.earliest then t.earliest <- r;
  t.count <- i + 1

let contains_addr t addr =
  let i = ref 0 in
  while !i < t.count && t.addr.(!i) <> addr do
    incr i
  done;
  !i < t.count

let assign_releases t ~region ~start =
  (* Called when [region] is verified: its quarantined entries drain to L1
     one per cycle starting at [start]. Returns the next free drain slot. *)
  let next = ref start in
  for i = 0 to t.count - 1 do
    if t.region.(i) = region && t.release_at.(i) = quarantined then begin
      t.release_at.(i) <- !next;
      incr next
    end
  done;
  if !next > start && start < t.earliest then t.earliest <- start;
  !next

type released = { addr : int; is_ckpt : bool; region : int; at : int }

(* The smallest release time over [0, count). *)
let rescan_earliest (t : t) =
  let earliest = ref quarantined in
  for i = 0 to t.count - 1 do
    if t.release_at.(i) < !earliest then earliest := t.release_at.(i)
  done;
  t.earliest <- !earliest

let release_up_to (t : t) cycle =
  if cycle < t.earliest then []
  else begin
    (* Collect the due entries back to front, so the list comes out oldest
       first, then close the gaps they leave in one forward pass. *)
    let released = ref [] in
    for i = t.count - 1 downto 0 do
      if t.release_at.(i) <= cycle then
        released :=
          {
            addr = t.addr.(i);
            is_ckpt = t.is_ckpt.(i);
            region = t.region.(i);
            at = t.release_at.(i);
          }
          :: !released
    done;
    let kept = ref 0 and earliest = ref quarantined in
    for i = 0 to t.count - 1 do
      let r = t.release_at.(i) in
      if r > cycle then begin
        let k = !kept in
        t.addr.(k) <- t.addr.(i);
        t.region.(k) <- t.region.(i);
        t.is_ckpt.(k) <- t.is_ckpt.(i);
        t.release_at.(k) <- r;
        if r < !earliest then earliest := r;
        kept := k + 1
      end
    done;
    t.count <- !kept;
    t.earliest <- !earliest;
    !released
  end

let earliest_release (t : t) =
  if t.earliest = quarantined then None else Some t.earliest

let all_unreleasable (t : t) ~current_region =
  let i = ref 0 in
  while
    !i < t.count && t.release_at.(!i) = quarantined && t.region.(!i) = current_region
  do
    incr i
  done;
  t.count > 0 && !i = t.count

let force_release_oldest (t : t) =
  if t.count = 0 then None
  else begin
    let oldest = (t.addr.(0), t.is_ckpt.(0)) in
    let n = t.count - 1 in
    Array.blit t.addr 1 t.addr 0 n;
    Array.blit t.region 1 t.region 0 n;
    Array.blit t.is_ckpt 1 t.is_ckpt 0 n;
    Array.blit t.release_at 1 t.release_at 0 n;
    t.count <- n;
    rescan_earliest t;
    Some oldest
  end
