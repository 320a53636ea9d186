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
  reg_ready : Reg_ready.t;
  completions : int array; (* ring buffer of the last [rob_size] completions *)
  alu_free : int array;
  mutable load_free : int;
  mutable store_free : int;
  mutable fetch_ready : int;
  mutable issued : int;
  mutable drain_free_at : int;
  mutable last_completion : int;
  stats : Sim_stats.t;
}

let create cfg =
  {
    cfg;
    mem = Mem_hierarchy.create cfg.mem;
    sb = Store_buffer.create cfg.sb_size;
    rbb = Rbb.create 16;
    predictor = Branch_predictor.create ();
    reg_ready = Reg_ready.create ();
    completions = Array.make cfg.rob_size 0;
    alu_free = Array.make cfg.alus 0;
    load_free = 0;
    store_free = 0;
    fetch_ready = 0;
    issued = 0;
    drain_free_at = 0;
    last_completion = 0;
    stats = Sim_stats.create ();
  }

(* Background events up to [cycle]; toplevel walks, as in {!Timing}, so
   the per-dispatch call allocates nothing when nothing is due. *)
let rec drain_verified t ~cycle = function
  | [] -> ()
  | (r : Rbb.region) :: rest ->
    let v = Option.value r.Rbb.verify_at ~default:cycle in
    let start = Int.max v t.drain_free_at in
    t.drain_free_at <- Store_buffer.assign_releases t.sb ~region:r.Rbb.seq ~start;
    drain_verified t ~cycle rest

let rec release_stores t = function
  | [] -> ()
  | (r : Store_buffer.released) :: rest ->
    Mem_hierarchy.store_release t.mem r.Store_buffer.addr;
    release_stores t rest

let settle t ~cycle =
  drain_verified t ~cycle (Rbb.pop_verified t.rbb ~cycle);
  release_stores t (Store_buffer.release_up_to t.sb cycle)

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

(* Dispatch an instruction whose sources are ready at [ready]: respect the
   reorder window and fetch stream, claim the unit, record completion
   [latency] cycles after the start. Returns the start cycle. *)
let dispatch t ~ready ~unit_kind ~latency =
  let slot = t.issued mod t.cfg.rob_size in
  let window_ready = t.completions.(slot) in
  let at = Int.max (Int.max window_ready t.fetch_ready) ready in
  settle t ~cycle:at;
  let start =
    match unit_kind with
    | `Alu -> claim_pool t.alu_free ~at
    | `Load ->
      let s = Int.max at t.load_free in
      t.load_free <- s + 1;
      s
    | `Store ->
      let s = Int.max at t.store_free in
      t.store_free <- s + 1;
      s
  in
  let completion = start + latency in
  t.completions.(slot) <- completion;
  t.issued <- t.issued + 1;
  t.last_completion <- Int.max t.last_completion completion;
  t.stats.Sim_stats.instructions <- t.stats.Sim_stats.instructions + 1;
  start

(* Wait for a free store-buffer entry no earlier than [at]. *)
let rec sb_entry_at t ~at =
  settle t ~cycle:at;
  if not (Store_buffer.is_full t.sb) then at
  else
    let next =
      match Store_buffer.earliest_release t.sb with
      | Some r -> Int.max r (at + 1)
      | None -> (
        match Rbb.next_verify_time t.rbb with
        | Some v -> Int.max v (at + 1)
        | None -> at + 1)
    in
    t.stats.Sim_stats.sb_full_stall_cycles <-
      t.stats.Sim_stats.sb_full_stall_cycles + (next - at);
    sb_entry_at t ~at:next

(* A store or checkpoint. It only completes (commits) once a store-buffer
   entry is free: the wait flows into its ROB completion slot, so a full
   SB backpressures dispatch through the reorder window, exactly how a
   real OoO core feels quarantine pressure. *)
let store t ~ready ~addr ~is_ckpt =
  let start = dispatch t ~ready ~unit_kind:`Store ~latency:1 in
  let commit_slot = (t.issued - 1) mod t.cfg.rob_size in
  let at =
    if t.cfg.verification || Store_buffer.is_full t.sb then sb_entry_at t ~at:start
    else start
  in
  t.completions.(commit_slot) <- Int.max t.completions.(commit_slot) (at + 1);
  t.last_completion <- Int.max t.last_completion (at + 1);
  if t.cfg.verification then begin
    Store_buffer.alloc t.sb ~addr ~region:(Rbb.current_seq t.rbb) ~is_ckpt
      ~release_at:None;
    t.stats.Sim_stats.quarantined <- t.stats.Sim_stats.quarantined + 1
  end
  else Store_buffer.alloc t.sb ~addr ~region:0 ~is_ckpt ~release_at:(Some (at + 2));
  if is_ckpt then t.stats.Sim_stats.ckpts <- t.stats.Sim_stats.ckpts + 1
  else t.stats.Sim_stats.stores <- t.stats.Sim_stats.stores + 1

let run_event t (e : Trace.event) =
  match e with
  | Trace.Boundary { region } ->
    (match Rbb.current t.rbb with
    | Some _ ->
      ignore (Rbb.close_region t.rbb ~end_cycle:t.last_completion ~wcdl:t.cfg.wcdl)
    | None -> ());
    (* The 16-entry RBB of an OoO core effectively never fills on these
       traces; regions open at the current completion frontier. *)
    ignore (Rbb.open_region t.rbb ~static_id:region);
    t.stats.Sim_stats.boundaries <- t.stats.Sim_stats.boundaries + 1
  | Trace.Alu { dst; srcs } ->
    let ready = Reg_ready.latest t.reg_ready srcs in
    let start = dispatch t ~ready ~unit_kind:`Alu ~latency:1 in
    (match dst with Some d -> Reg_ready.set t.reg_ready d (start + 1) | None -> ())
  | Trace.Load { dst; srcs; addr; kind = _ } ->
    let lat =
      if Store_buffer.contains_addr t.sb addr then begin
        ignore (Mem_hierarchy.load_latency t.mem addr);
        t.stats.Sim_stats.sb_forwards <- t.stats.Sim_stats.sb_forwards + 1;
        t.cfg.mem.Mem_hierarchy.l1_hit
      end
      else Mem_hierarchy.load_latency t.mem addr
    in
    let ready = Reg_ready.latest t.reg_ready srcs in
    let start = dispatch t ~ready ~unit_kind:`Load ~latency:lat in
    Reg_ready.set t.reg_ready dst (start + lat);
    t.stats.Sim_stats.loads <- t.stats.Sim_stats.loads + 1
  | Trace.Store { srcs; addr; cls = _ } ->
    store t ~ready:(Reg_ready.latest t.reg_ready srcs) ~addr ~is_ckpt:false
  | Trace.Ckpt { src } ->
    store t ~ready:(Reg_ready.get t.reg_ready src)
      ~addr:(Layout.ckpt_slot ~reg:(Int.max src 0) ~color:0)
      ~is_ckpt:true
  | Trace.Branch { srcs; taken; pc } ->
    let ready = Reg_ready.latest t.reg_ready srcs in
    let start = dispatch t ~ready ~unit_kind:`Alu ~latency:1 in
    let correct =
      match srcs with
      | [] -> Branch_predictor.update t.predictor ~pc ~taken:true
      | _ :: _ -> Branch_predictor.update t.predictor ~pc ~taken
    in
    if not correct then t.fetch_ready <- start + 1 + t.cfg.branch_penalty

let simulate cfg trace =
  let t = create cfg in
  ignore (Rbb.open_region t.rbb ~static_id:(-1));
  Trace.iter (run_event t) trace;
  t.stats.Sim_stats.cycles <- t.last_completion + 1;
  t.stats.Sim_stats.complete <- trace.Trace.complete;
  t.stats.Sim_stats.branch_mispredicts <- Branch_predictor.mispredicts t.predictor;
  t.stats.Sim_stats.l1_hit_rate <- Cache.hit_rate (Mem_hierarchy.l1 t.mem);
  t.stats
