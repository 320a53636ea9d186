(* Trace-driven model of an out-of-order core, for the paper's motivating
   comparison (§1, §3): Turnstile's verification is cheap on OoO machines —
   the 40-entry store buffer absorbs quarantined stores and dynamic
   scheduling hides checkpoint data hazards — while the same scheme
   devastates an in-order core. This model exists to reproduce that claim,
   not to be a detailed OoO simulator.

   The model is dataflow-limited execution under structural bounds:
   an instruction starts when (a) its sources are ready, (b) it is inside
   the reorder window (the instruction ROB-size older must have completed),
   (c) a functional unit is free (2 ALUs, 1 load port, 1 store port), and
   (d) the fetch stream has reached it (branch mispredictions stall fetch
   until the branch resolves). Stores quarantine in the store buffer until
   their region verifies, exactly as in the in-order model — but with a
   40-entry buffer the quarantine almost never backpressures. *)

open Turnpike_ir

type config = {
  rob_size : int;
  alus : int;
  sb_size : int;
  wcdl : int;
  verification : bool;
  branch_penalty : int;
  mem : Mem_hierarchy.config;
}

let default_config =
  {
    rob_size = 64;
    alus = 2;
    sb_size = 40;
    wcdl = 10;
    verification = false;
    branch_penalty = 8;
    mem = Mem_hierarchy.default_config;
  }

let turnstile_config ?(wcdl = 10) () = { default_config with verification = true; wcdl }

type t = {
  cfg : config;
  mem : Mem_hierarchy.t;
  sb : Store_buffer.t;
  rbb : Rbb.t;
  predictor : Branch_predictor.t;
  mutable ready : int array; (* register ready cycles, by register id *)
  completions : int array; (* ring buffer of the last [rob_size] completions *)
  alu_free : int array;
  mutable slot : int; (* ROB slot of the next dispatch *)
  mutable load_free : int;
  mutable store_free : int;
  mutable fetch_ready : int;
  mutable drain_free_at : int;
  mutable last_completion : int;
  mutable due_at : int; (* no background event is due before this cycle *)
  stats : Sim_stats.t;
}

let create cfg =
  {
    cfg;
    mem = Mem_hierarchy.create cfg.mem;
    sb = Store_buffer.create cfg.sb_size;
    rbb = Rbb.create 16;
    predictor = Branch_predictor.create ();
    ready = Array.make 64 0;
    completions = Array.make cfg.rob_size 0;
    alu_free = Array.make cfg.alus 0;
    slot = 0;
    load_free = 0;
    store_free = 0;
    fetch_ready = 0;
    drain_free_at = 0;
    last_completion = 0;
    due_at = max_int;
    stats = Sim_stats.create ();
  }

(* Register ready cycles, as in {!Timing}: an array indexed by register
   id, 0 for a register never written, doubled the first time a larger
   id is written. *)
let[@inline] reg_ready t r =
  let a = t.ready in
  if r < Array.length a then a.(r) else 0

let rec srcs_ready t acc = function
  | [] -> acc
  | r :: rest -> srcs_ready t (Int.max acc (reg_ready t r)) rest

(* Most instructions read one register. *)
let[@inline] sources_ready t = function
  | [] -> 0
  | [ r ] -> reg_ready t r
  | r :: rest -> srcs_ready t (reg_ready t r) rest

let set_ready t r c =
  if r <> Reg.zero then begin
    let n = Array.length t.ready in
    if r >= n then begin
      let grown = Array.make (Int.max (r + 1) (2 * n)) 0 in
      Array.blit t.ready 0 grown 0 n;
      t.ready <- grown
    end;
    t.ready.(r) <- c
  end

(* Background events up to [cycle], as in {!Timing}: verify the closed
   regions whose window has elapsed, oldest first, then drain the due
   stores. *)
let rec verify_regions t ~cycle =
  let verify_at = Rbb.next_verify_time t.rbb in
  if verify_at <= cycle then begin
    let region = Rbb.verify_oldest t.rbb in
    let start = Int.max verify_at t.drain_free_at in
    t.drain_free_at <- Store_buffer.assign_releases t.sb ~region ~start;
    verify_regions t ~cycle
  end

let release_store ~addr ~region:_ ~is_ckpt:_ ~at:_ t =
  Mem_hierarchy.store_release t.mem addr

(* As in {!Timing}: [due_at] never exceeds the next release or
   verification, so the callers compare with it and call this only when
   one may be due by [cycle]. [cycle] may be earlier than on the previous
   call (dispatch cycles are not monotonic); the gate stays exact because
   both steps act only on what is due by the cycle they are given. *)
let settle_due t ~cycle =
  verify_regions t ~cycle;
  Store_buffer.release_due t.sb ~cycle release_store t;
  t.due_at <- Int.min (Store_buffer.earliest_release t.sb) (Rbb.next_verify_time t.rbb)

(* Claim one unit of a resource pool no earlier than [at]; the pool grants
   each unit one operation per cycle. *)
let claim_pool pool ~at =
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  let start = Int.max at pool.(!best) in
  pool.(!best) <- start + 1;
  start

(* The earliest cycle at which an instruction whose sources are ready at
   [ready] can start: inside the reorder window (the instruction that
   last used its ROB slot has completed) and the fetch stream. Settles
   background work due by then. *)
let dispatch_at t ~ready =
  let at = Int.max (Int.max t.completions.(t.slot) t.fetch_ready) ready in
  if at >= t.due_at then settle_due t ~cycle:at;
  at

(* Record the dispatched instruction's completion in its ROB slot and
   step to the next slot. *)
let complete t ~completion =
  let slot = t.slot in
  t.completions.(slot) <- completion;
  t.slot <- (if slot + 1 = Array.length t.completions then 0 else slot + 1);
  if completion > t.last_completion then t.last_completion <- completion;
  t.stats.Sim_stats.instructions <- t.stats.Sim_stats.instructions + 1

(* Wait for a free store-buffer entry no earlier than [at]. When every
   entry is quarantined in the open region, no release and no
   verification can free one: as {!Timing} does for code partitioned
   without regard to the SB, count a violation and force the oldest
   entry out. *)
let rec sb_entry_at t ~at =
  if at >= t.due_at then settle_due t ~cycle:at;
  if not (Store_buffer.is_full t.sb) then at
  else if Store_buffer.all_unreleasable t.sb ~current_region:(Rbb.current_seq t.rbb)
  then begin
    t.stats.Sim_stats.partition_violations <- t.stats.Sim_stats.partition_violations + 1;
    (match Store_buffer.force_release_oldest t.sb with
    | Some (addr, _) -> Mem_hierarchy.store_release t.mem addr
    | None -> ());
    at
  end
  else
    let r = Store_buffer.earliest_release t.sb in
    let due = if r < max_int then r else Rbb.next_verify_time t.rbb in
    let next = if due = max_int then at + 1 else Int.max due (at + 1) in
    t.stats.Sim_stats.sb_full_stall_cycles <-
      t.stats.Sim_stats.sb_full_stall_cycles + (next - at);
    sb_entry_at t ~at:next

(* A store or checkpoint. It only completes (commits) once a store-buffer
   entry is free: the wait flows into its ROB completion slot, so a full
   SB backpressures dispatch through the reorder window, exactly how a
   real OoO core feels quarantine pressure. *)
let store t ~ready ~addr ~is_ckpt =
  let commit_slot = t.slot in
  let start = Int.max (dispatch_at t ~ready) t.store_free in
  t.store_free <- start + 1;
  complete t ~completion:(start + 1);
  let at =
    if t.cfg.verification || Store_buffer.is_full t.sb then sb_entry_at t ~at:start
    else start
  in
  t.completions.(commit_slot) <- Int.max t.completions.(commit_slot) (at + 1);
  t.last_completion <- Int.max t.last_completion (at + 1);
  if t.cfg.verification then begin
    Store_buffer.alloc t.sb ~addr ~region:(Rbb.current_seq t.rbb) ~is_ckpt
      ~release_at:max_int;
    t.stats.Sim_stats.quarantined <- t.stats.Sim_stats.quarantined + 1
  end
  else begin
    Store_buffer.alloc t.sb ~addr ~region:0 ~is_ckpt ~release_at:(at + 2);
    t.due_at <- Int.min t.due_at (at + 2)
  end;
  if is_ckpt then t.stats.Sim_stats.ckpts <- t.stats.Sim_stats.ckpts + 1
  else t.stats.Sim_stats.stores <- t.stats.Sim_stats.stores + 1

let load t ~dst ~srcs ~addr =
  let lat =
    if Store_buffer.contains_addr t.sb addr then begin
      ignore (Mem_hierarchy.load_latency t.mem addr);
      t.stats.Sim_stats.sb_forwards <- t.stats.Sim_stats.sb_forwards + 1;
      t.cfg.mem.Mem_hierarchy.l1_hit
    end
    else Mem_hierarchy.load_latency t.mem addr
  in
  let start = Int.max (dispatch_at t ~ready:(sources_ready t srcs)) t.load_free in
  t.load_free <- start + 1;
  complete t ~completion:(start + lat);
  set_ready t dst (start + lat);
  t.stats.Sim_stats.loads <- t.stats.Sim_stats.loads + 1

let boundary t =
  let _ : int = Rbb.close_region t.rbb ~end_cycle:t.last_completion ~wcdl:t.cfg.wcdl in
  t.due_at <- Int.min t.due_at (t.last_completion + t.cfg.wcdl);
  (* The OoO core never stalls on its RBB: regions open at the current
     completion frontier, and the RBB grows past its 16 entries when short
     regions meet a long WCDL. *)
  let _ : int = Rbb.open_region t.rbb in
  t.stats.Sim_stats.boundaries <- t.stats.Sim_stats.boundaries + 1

(* The replay loop; ALU ops and branches are handled here, without a call
   into another module (but the branch predictor's). *)
let simulate cfg trace =
  let t = create cfg in
  let _ : int = Rbb.open_region t.rbb in
  let events = trace.Trace.events in
  for i = 0 to Array.length events - 1 do
    match events.(i) with
    | Trace.Alu { dst; srcs } -> (
      let start = claim_pool t.alu_free ~at:(dispatch_at t ~ready:(sources_ready t srcs)) in
      complete t ~completion:(start + 1);
      match dst with Some d -> set_ready t d (start + 1) | None -> ())
    | Trace.Branch { srcs; taken; pc } ->
      let start = claim_pool t.alu_free ~at:(dispatch_at t ~ready:(sources_ready t srcs)) in
      complete t ~completion:(start + 1);
      let taken = match srcs with [] -> true | _ :: _ -> taken in
      if not (Branch_predictor.update t.predictor ~pc ~taken) then
        t.fetch_ready <- start + 1 + t.cfg.branch_penalty
    | Trace.Load { dst; srcs; addr; kind = _ } -> load t ~dst ~srcs ~addr
    | Trace.Store { srcs; addr; cls = _ } ->
      store t ~ready:(sources_ready t srcs) ~addr ~is_ckpt:false
    | Trace.Ckpt { src } ->
      store t ~ready:(reg_ready t src)
        ~addr:(Layout.ckpt_slot ~reg:(Int.max src 0) ~color:0)
        ~is_ckpt:true
    | Trace.Boundary { region = _ } -> boundary t
  done;
  t.stats.Sim_stats.cycles <- t.last_completion + 1;
  t.stats.Sim_stats.complete <- trace.Trace.complete;
  t.stats.Sim_stats.branch_mispredicts <- Branch_predictor.mispredicts t.predictor;
  t.stats.Sim_stats.l1_hit_rate <- Cache.hit_rate (Mem_hierarchy.l1 t.mem);
  t.stats
