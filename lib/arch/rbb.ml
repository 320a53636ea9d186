(* Region boundary buffer: one entry per in-flight (unverified) dynamic
   region, recording when it will be verified. The entry also anchors the
   recovery PC (represented here by the static region id). *)

type region = { seq : int; static_id : int; mutable verify_at : int option }

type t = {
  size : int;
  mutable pending : region list; (* oldest first; all unverified *)
  mutable current : region option; (* open region, not yet in pending *)
  mutable next_seq : int;
}

let create size =
  if size <= 0 then invalid_arg "Rbb.create: size must be positive";
  { size; pending = []; current = None; next_seq = 0 }

let current t = t.current

let current_seq t = match t.current with Some r -> r.seq | None -> -1

let unverified_count t =
  List.length t.pending + match t.current with Some _ -> 1 | None -> 0

let is_full t = unverified_count t >= t.size

let open_region t ~static_id =
  if t.current <> None then invalid_arg "Rbb.open_region: a region is already open";
  let r = { seq = t.next_seq; static_id; verify_at = None } in
  t.next_seq <- t.next_seq + 1;
  t.current <- Some r;
  r

let close_region t ~end_cycle ~wcdl =
  match t.current with
  | None -> invalid_arg "Rbb.close_region: no open region"
  | Some r ->
    r.verify_at <- Some (end_cycle + wcdl);
    t.pending <- t.pending @ [ r ];
    t.current <- None;
    r

let next_verify_time t =
  match t.pending with
  | [] -> None
  | r :: _ -> r.verify_at

let rec pop_verified t ~cycle =
  (* Regions verify in order; pop every closed region whose WCDL window has
     elapsed by [cycle], oldest first. *)
  match t.pending with
  | ({ verify_at = Some v; _ } as r) :: rest when v <= cycle ->
    t.pending <- rest;
    r :: pop_verified t ~cycle
  | _ -> []
