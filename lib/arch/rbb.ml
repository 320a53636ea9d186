(* Region boundary buffer: one entry per in-flight (unverified) dynamic
   region, recording when it will be verified.

   Regions open, close and verify strictly in sequence order, so the
   unverified regions are always the sequence numbers [oldest, next_seq),
   the last of them still open when [is_open]. The buffer is a ring of
   verify cycles indexed by sequence number: every operation reads or
   writes a few ints and allocates nothing. The ring starts with 16
   slots and doubles when more regions are unverified than it holds: a
   larger [size], or the out-of-order model, whose RBB never stalls
   dispatch. *)

type t = {
  size : int;
  mutable verify_at : int array; (* by [seq land mask]; closed regions only *)
  mutable mask : int;
  mutable oldest : int; (* sequence number of the oldest unverified region *)
  mutable next_seq : int;
  mutable is_open : bool;
}

let create size =
  if size <= 0 then invalid_arg "Rbb.create: size must be positive";
  { size; verify_at = Array.make 16 0; mask = 15; oldest = 0; next_seq = 0; is_open = false }

let current_seq t = if t.is_open then t.next_seq - 1 else -1

let unverified_count t = t.next_seq - t.oldest

let is_full t = t.next_seq - t.oldest >= t.size

(* Double the ring, keeping each unverified region at its sequence
   number's slot. *)
let grow t =
  let cap = 2 * Array.length t.verify_at in
  let grown = Array.make cap 0 in
  for seq = t.oldest to t.next_seq - 1 do
    grown.(seq land (cap - 1)) <- t.verify_at.(seq land t.mask)
  done;
  t.verify_at <- grown;
  t.mask <- cap - 1

let open_region t =
  if t.is_open then invalid_arg "Rbb.open_region: a region is already open";
  if t.next_seq - t.oldest > t.mask then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.is_open <- true;
  seq

let close_region t ~end_cycle ~wcdl =
  if not t.is_open then invalid_arg "Rbb.close_region: no open region";
  let seq = t.next_seq - 1 in
  t.verify_at.(seq land t.mask) <- end_cycle + wcdl;
  t.is_open <- false;
  seq

(* The closed regions are [oldest, next_seq), less the open one. *)
let has_closed t = t.oldest < (if t.is_open then t.next_seq - 1 else t.next_seq)

let next_verify_time t =
  if has_closed t then t.verify_at.(t.oldest land t.mask) else max_int

let verify_oldest t =
  if not (has_closed t) then invalid_arg "Rbb.verify_oldest: no closed region";
  let seq = t.oldest in
  t.oldest <- seq + 1;
  seq
