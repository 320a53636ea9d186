(* Trace-driven, cycle-level model of a dual-issue in-order core with
   sensor-based soft error verification.

   The model replays a dynamic trace through a scoreboarded in-order
   pipeline. It captures exactly the three mechanisms the paper's overheads
   come from:
   - data hazards: an instruction issues only when its source registers are
     ready (checkpoint stores wait on their register-update producer);
   - structural hazards: a store/checkpoint needs a free store-buffer entry
     at commit, and a region boundary needs a free RBB entry; under
     verification, SB entries release only WCDL cycles after their region
     ends (one per cycle through a shared drain port);
   - fast release: WAR-free regular stores (CLQ) and colored checkpoint
     stores bypass the store buffer entirely; [Fast_release], which the
     recovery executor shares, makes those decisions. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry

(* Timeline track (tid) layout, mirrored by [Telemetry.Export.chrome]
   thread-name metadata in the timeline driver:
   0 regions (B/E spans), 1 stalls (sb_full / rbb_full X-spans),
   2 sensor verification windows (X-spans of length WCDL),
   3 store-buffer quarantine / release instants,
   4 CLQ bypass / overflow instants. Counters ride on tid 0. *)
let track_regions = 0
let track_stalls = 1
let track_verify = 2
let track_sb = 3
let track_clq = 4

type t = {
  tel : Telemetry.sink;
  tel_on : bool; (* [Telemetry.enabled tel] *)
  machine : Machine.t;
  mem : Mem_hierarchy.t;
  sb : Store_buffer.t;
  rbb : Rbb.t;
  fast : Fast_release.t option; (* [None]: neither a CLQ nor color maps *)
  predictor : Branch_predictor.t;
  stats : Sim_stats.t;
  mutable ready : int array; (* register ready cycles, by register id *)
  mutable cycle : int; (* current issue cycle *)
  mutable slots : int; (* issue slots used in [cycle] *)
  mutable load_port_cycle : int; (* last cycle the load AGU was used *)
  mutable store_port_cycle : int; (* last cycle the store AGU was used *)
  mutable fetch_ready : int; (* earliest issue after a taken branch *)
  mutable drain_free_at : int; (* next free SB->L1 drain cycle *)
  mutable due_at : int; (* no background event is due before this cycle *)
}

let create ?(tel = Telemetry.null) (machine : Machine.t) =
  {
    tel;
    tel_on = Telemetry.enabled tel;
    machine;
    mem = Mem_hierarchy.create machine.mem;
    sb = Store_buffer.create machine.sb_size;
    rbb = Rbb.create machine.rbb_size;
    fast =
      Fast_release.create ~clq:machine.clq ~coloring:machine.coloring
        ~colors:machine.colors ~nregs:machine.nregs;
    predictor = Branch_predictor.create ();
    stats = Sim_stats.create ();
    ready = Array.make 64 0;
    cycle = 0;
    slots = 0;
    load_port_cycle = -1;
    store_port_cycle = -1;
    fetch_ready = 0;
    drain_free_at = 0;
    due_at = max_int;
  }

(* Register ready cycles: when each register's latest value becomes
   available to a consumer, read on every source operand. Ids are small
   non-negative ints (architectural registers sit below [Reg.virt_base]);
   a register never written, the zero register included, is ready at
   cycle 0. The array doubles the first time a larger id is written. *)
let[@inline] reg_ready t r =
  let a = t.ready in
  if r < Array.length a then a.(r) else 0

(* The cycle by which every listed register (and [acc]) is ready. *)
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

(* Cycle-stamped timeline events. Every site guards on the sink's immutable
   [enabled] flag, copied into [t] so that a disabled run pays one field
   load per site, not a call into [Telemetry] (calls between modules are
   not inlined when the library is built with [-opaque], as dune's dev
   profile does), and allocates nothing. Timestamps are simulated cycles,
   never wall clock — that is what makes the export deterministic across
   [--jobs]. *)
let ev_enabled t = t.tel_on

let ev_stall t ~name ~from ~until =
  if ev_enabled t && until > from then
    Telemetry.complete t.tel ~ts:from ~dur:(until - from) ~tid:track_stalls
      ~cat:"stall" name

(* Open/close the region span on track 0, sample the occupancy counters at
   the boundary, and stamp the sensor verification window that closing a
   region schedules: the region verifies error-free only once every strike
   that could corrupt it has had WCDL cycles to reach a sensor. *)
let ev_region_open t ~static_id ~seq =
  if ev_enabled t then begin
    Telemetry.span_begin t.tel ~ts:t.cycle ~tid:track_regions ~cat:"region"
      ~args:[ ("static_id", Telemetry.Int static_id); ("seq", Telemetry.Int seq) ]
      "region";
    Telemetry.counter t.tel ~ts:t.cycle "occupancy"
      [
        ("sb_occupancy", Telemetry.Int (Store_buffer.occupancy t.sb));
        ("rbb_unverified", Telemetry.Int (Rbb.unverified_count t.rbb));
        ( "clq_entries",
          Telemetry.Int
            (match t.fast with Some fr -> Fast_release.clq_entries fr | None -> 0) );
      ]
  end

let ev_region_close t ~seq =
  if ev_enabled t then begin
    Telemetry.span_end t.tel ~ts:t.cycle ~tid:track_regions ~cat:"region"
      ~args:[ ("seq", Telemetry.Int seq) ]
      "region";
    if t.machine.verification then
      Telemetry.complete t.tel ~ts:t.cycle ~dur:t.machine.wcdl
        ~tid:track_verify ~cat:"sensor"
        ~args:[ ("seq", Telemetry.Int seq) ]
        "verify_window"
  end

(* Background events (region verifications, SB drains) up to and including
   [cycle]. Verify, oldest first, every closed region whose WCDL window
   has elapsed: its quarantined stores get drain cycles, and its
   colorings take effect and its CLQ entry clears. *)
let rec verify_regions t ~cycle =
  let verify_at = Rbb.next_verify_time t.rbb in
  if verify_at <= cycle then begin
    let region = Rbb.verify_oldest t.rbb in
    let start = Int.max verify_at t.drain_free_at in
    t.drain_free_at <- Store_buffer.assign_releases t.sb ~region ~start;
    (match t.fast with
    | Some fr -> Fast_release.verify fr ~region ~unverified:(Rbb.unverified_count t.rbb)
    | None -> ());
    verify_regions t ~cycle
  end

(* A drained store reaches L1. A toplevel function, so handing it to
   [Store_buffer.release_due] builds no closure. *)
let release_store ~addr ~region ~is_ckpt ~at t =
  Mem_hierarchy.store_release t.mem addr;
  if ev_enabled t then
    Telemetry.instant t.tel ~ts:at ~tid:track_sb ~cat:"sb"
      ~args:
        [
          ("addr", Telemetry.Int addr);
          ("region", Telemetry.Int region);
          ("is_ckpt", Telemetry.Bool is_ckpt);
        ]
      "release"

(* [due_at] never exceeds the sooner of the store buffer's earliest
   release and the oldest closed region's verification: this sets it to
   exactly that after doing work, and the two operations that can bring
   either time forward (a baseline store's release time, a region
   closing) lower it. So the callers compare [cycle] with [due_at] and
   call this only when work may be due. *)
let settle_due t ~cycle =
  verify_regions t ~cycle;
  Store_buffer.release_due t.sb ~cycle release_store t;
  t.due_at <- Int.min (Store_buffer.earliest_release t.sb) (Rbb.next_verify_time t.rbb)

let settle t ~cycle = if cycle >= t.due_at then settle_due t ~cycle

(* Move the issue point forward to [c], a later cycle (settling
   background state), resetting the per-cycle slot count. *)
let[@inline] advance_to t c =
  if c >= t.due_at then settle_due t ~cycle:c;
  t.cycle <- c;
  t.slots <- 0

(* The first cycle after the issue point by which an event due at [c]
   ([max_int]: none) has happened. *)
let next_cycle t c = if c = max_int then t.cycle + 1 else Int.max c (t.cycle + 1)

(* Claim an issue slot at the earliest cycle >= [ready], the cycle the
   instruction's sources are ready, and return it. The core has one load
   AGU and one store AGU (Cortex-A53 style), so a load and a store may
   issue in the same cycle but two loads (or two stores) may not:
   [port_cycle] is the last cycle the instruction's AGU was used (-1 for
   an instruction that needs none), and the caller records the returned
   cycle there. One step forward always frees both a slot and the AGU. *)
let[@inline] issue t ~ready ~port_cycle =
  let earliest = Int.max (Int.max ready t.fetch_ready) t.cycle in
  if earliest > t.cycle then begin
    t.stats.data_stall_cycles <-
      t.stats.data_stall_cycles + (earliest - t.cycle);
    advance_to t earliest
  end
  else if t.slots >= t.machine.issue_width || port_cycle = t.cycle then
    advance_to t (t.cycle + 1);
  t.slots <- t.slots + 1;
  t.cycle

let issue_store t ~ready =
  let c = issue t ~ready ~port_cycle:t.store_port_cycle in
  t.store_port_cycle <- c;
  c

(* Wait (from the current issue point) until the store buffer has a free
   entry, charging the wait to SB-full stalls. *)
let wait_for_sb_entry t =
  let waited_from = t.cycle in
  settle t ~cycle:t.cycle;
  while Store_buffer.is_full t.sb do
    let current = Rbb.current_seq t.rbb in
    if Store_buffer.all_unreleasable t.sb ~current_region:current then begin
      (* A single region filled the whole SB, which the compiler's
         SB-aware partitioning is supposed to prevent: force its oldest
         entry out. *)
      t.stats.partition_violations <- t.stats.partition_violations + 1;
      match Store_buffer.force_release_oldest t.sb with
      | Some (addr, _) -> Mem_hierarchy.store_release t.mem addr
      | None -> ()
    end
    else begin
      let r = Store_buffer.earliest_release t.sb in
      advance_to t (next_cycle t (if r < max_int then r else Rbb.next_verify_time t.rbb))
    end
  done;
  if t.cycle > waited_from then begin
    t.stats.sb_full_stall_cycles <-
      t.stats.sb_full_stall_cycles + (t.cycle - waited_from);
    ev_stall t ~name:"sb_full" ~from:waited_from ~until:t.cycle
  end

let handle_boundary t ~static_id =
  settle t ~cycle:t.cycle;
  (* Close the running region: a region is open from the start of the
     trace on. *)
  let seq = Rbb.close_region t.rbb ~end_cycle:t.cycle ~wcdl:t.machine.wcdl in
  t.due_at <- Int.min t.due_at (t.cycle + t.machine.wcdl);
  ev_region_close t ~seq;
  (* A new region needs an RBB entry: stall while too many regions are
     still unverified. *)
  let waited_from = t.cycle in
  while Rbb.is_full t.rbb do
    advance_to t (next_cycle t (Rbb.next_verify_time t.rbb))
  done;
  if t.cycle > waited_from then begin
    t.stats.rbb_stall_cycles <- t.stats.rbb_stall_cycles + (t.cycle - waited_from);
    ev_stall t ~name:"rbb_full" ~from:waited_from ~until:t.cycle
  end;
  (match t.fast with
  | Some fr ->
    Fast_release.enable_at_boundary fr ~unverified:(Rbb.unverified_count t.rbb);
    Fast_release.sample fr
  | None -> ());
  let seq = Rbb.open_region t.rbb in
  ev_region_open t ~static_id ~seq;
  Store_buffer.sample t.sb;
  t.stats.boundaries <- t.stats.boundaries + 1

let handle_store t ~ready ~addr ~is_ckpt =
  if not t.machine.verification then begin
    (* Baseline: a store occupies the SB briefly while it drains to L1. *)
    if Store_buffer.is_full t.sb then wait_for_sb_entry t;
    let c = issue_store t ~ready in
    let release = c + t.machine.baseline_drain in
    Store_buffer.alloc t.sb ~addr ~region:0 ~is_ckpt ~release_at:release;
    t.due_at <- Int.min t.due_at release
  end
  else begin
    let region = Rbb.current_seq t.rbb in
    let fast =
      (not is_ckpt)
      && (match t.fast with
         | Some fr -> Fast_release.war_free fr ~region addr
         | None -> false)
      && not (Store_buffer.contains_addr t.sb addr)
    in
    if fast then begin
      let c = issue_store t ~ready in
      Mem_hierarchy.store_release t.mem addr;
      t.stats.war_free_released <- t.stats.war_free_released + 1;
      if ev_enabled t then
        Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"clq"
          ~args:[ ("addr", Telemetry.Int addr); ("region", Telemetry.Int region) ]
          "bypass"
    end
    else begin
      if Store_buffer.is_full t.sb then wait_for_sb_entry t;
      let c = issue_store t ~ready in
      Store_buffer.alloc t.sb ~addr ~region ~is_ckpt ~release_at:max_int;
      t.stats.quarantined <- t.stats.quarantined + 1;
      if is_ckpt then t.stats.ckpt_quarantined <- t.stats.ckpt_quarantined + 1;
      if ev_enabled t then
        Telemetry.instant t.tel ~ts:c ~tid:track_sb ~cat:"sb"
          ~args:
            [
              ("addr", Telemetry.Int addr);
              ("region", Telemetry.Int region);
              ("is_ckpt", Telemetry.Bool is_ckpt);
            ]
          "quarantine"
    end
  end

let handle_ckpt t ~src =
  let region = Rbb.current_seq t.rbb in
  let fast_color =
    if not t.machine.verification then None
    else
      match t.fast with
      | Some fr when Reg.is_physical src -> Fast_release.color fr ~reg:src ~region
      | Some _ | None -> None
  in
  let ready = reg_ready t src in
  match fast_color with
  | Some color ->
    let c = issue_store t ~ready in
    Mem_hierarchy.store_release t.mem (Layout.ckpt_slot ~reg:src ~color);
    t.stats.colored_released <- t.stats.colored_released + 1;
    if ev_enabled t then
      Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"coloring"
        ~args:[ ("reg", Telemetry.Int src); ("color", Telemetry.Int color) ]
        "colored_bypass"
  | None ->
    let addr = Layout.ckpt_slot ~reg:(Int.max src 0) ~color:0 in
    handle_store t ~ready ~addr ~is_ckpt:true

let handle_load t ~dst ~srcs ~addr =
  let c = issue t ~ready:(sources_ready t srcs) ~port_cycle:t.load_port_cycle in
  t.load_port_cycle <- c;
  (* Store-to-load forwarding: a load that hits a quarantined SB entry
     gets its data from the buffer at L1-hit speed — essential when
     verification holds stores in the SB for WCDL cycles. The cache is
     still probed to keep its state warm for the eventual release. *)
  let lat =
    if Store_buffer.contains_addr t.sb addr then begin
      ignore (Mem_hierarchy.load_latency t.mem addr);
      t.stats.sb_forwards <- t.stats.sb_forwards + 1;
      t.machine.mem.Mem_hierarchy.l1_hit
    end
    else Mem_hierarchy.load_latency t.mem addr
  in
  set_ready t dst (c + lat);
  match t.fast with
  | Some fr when t.machine.verification ->
    let overflowed = Fast_release.record_load fr ~region:(Rbb.current_seq t.rbb) addr in
    if overflowed && ev_enabled t then
      Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"clq"
        ~args:[ ("addr", Telemetry.Int addr) ]
        "overflow"
  | Some _ | None -> ()

let finalize t (trace : Trace.t) =
  (* Balance the timeline: the final region never sees another boundary,
     so close its span at the last simulated cycle. *)
  ev_region_close t ~seq:(Rbb.current_seq t.rbb);
  t.stats.cycles <- t.cycle + 1;
  t.stats.complete <- trace.Trace.complete;
  (match t.fast with Some fr -> Fast_release.record_stats fr t.stats | None -> ());
  t.stats.sb_mean_occupancy <- Store_buffer.mean_occupancy t.sb;
  t.stats.l1_hit_rate <- Cache.hit_rate (Mem_hierarchy.l1 t.mem);
  t.stats.branch_mispredicts <- Branch_predictor.mispredicts t.predictor;
  t.stats

(* The replay loop. ALU ops (most of a trace) and branches are handled
   here, without a call into another module: their sources are read from
   [ready], and [issue] settles background work only when [due_at] says
   some is due. *)
let simulate ?tel machine trace =
  let t = create ?tel machine in
  (* An implicit region is open from program start even before the first
     boundary marker (the compiler always emits one at the entry, but raw
     un-partitioned programs must still simulate). *)
  let seq = Rbb.open_region t.rbb in
  ev_region_open t ~static_id:(-1) ~seq;
  let events = trace.Trace.events in
  let stats = t.stats in
  for i = 0 to Array.length events - 1 do
    match events.(i) with
    | Trace.Alu { dst; srcs } ->
      let c = issue t ~ready:(sources_ready t srcs) ~port_cycle:(-1) in
      (match dst with Some d -> set_ready t d (c + 1) | None -> ());
      stats.instructions <- stats.instructions + 1
    | Trace.Branch { srcs; taken; pc } ->
      let c = issue t ~ready:(sources_ready t srcs) ~port_cycle:(-1) in
      (* The bimodal predictor absorbs well-behaved branches (loop back
         edges); only mispredictions pay the fetch-redirect bubble. An
         unconditional non-fallthrough jump (srcs = []) is always
         predicted by the BTB once seen, and costs nothing thereafter. *)
      let taken = match srcs with [] -> true | _ :: _ -> taken in
      if not (Branch_predictor.update t.predictor ~pc ~taken) then
        t.fetch_ready <- c + 1 + t.machine.branch_penalty;
      stats.instructions <- stats.instructions + 1
    | Trace.Load { dst; srcs; addr; kind = _ } ->
      handle_load t ~dst ~srcs ~addr;
      stats.loads <- stats.loads + 1;
      stats.instructions <- stats.instructions + 1
    | Trace.Store { srcs; addr; cls = _ } ->
      handle_store t ~ready:(sources_ready t srcs) ~addr ~is_ckpt:false;
      stats.stores <- stats.stores + 1;
      stats.instructions <- stats.instructions + 1
    | Trace.Ckpt { src } ->
      handle_ckpt t ~src;
      stats.ckpts <- stats.ckpts + 1;
      stats.instructions <- stats.instructions + 1
    | Trace.Boundary { region } -> handle_boundary t ~static_id:region
  done;
  finalize t trace
