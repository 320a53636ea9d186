(* Region-transactional executor: the functional (architectural) model of
   Turnstile/Turnpike error containment and recovery.

   Execution proceeds on the interpreter with these semantics layered on:
   - quarantined stores (and fallback checkpoints) apply to memory but are
     undo-logged per dynamic region; a region's log is dropped (committed)
     when the region verifies, [verify_delay] steps after it ends;
   - WAR-free regular stores and colored checkpoint stores are released
     immediately with no undo entry; [Turnpike_arch.Fast_release], which
     the timing model shares, decides both;
   - a fault flips bits of a register mid-run; the strike is detected
     within [verify_delay] steps (acoustic sensors), or immediately when a
     tainted register is about to be used for addressing (register parity
     + hardened AGU, paper §5);
   - on detection, every unverified region's writes are rolled back in
     reverse order, the restart region's live-in registers are restored
     from verified checkpoint storage (running the pruning pass's
     reconstruction expressions where checkpoints were removed), and
     execution resumes at the region head.

   The executor is intentionally independent of the cycle-level timing
   model: recovery correctness is an architectural property and is tested
   here end to end against a golden run.

   Most steps have none of this to do. The step loop keeps the next step
   at which anything can be due (a strike, the pilot's next capture, the
   next convergence check against the pilot); while no register is
   tainted and no detection is pending it runs plain interpreter steps up
   to that step, verifying regions inline as their windows close. *)

open Turnpike_ir
module Clq = Turnpike_arch.Clq
module Fast_release = Turnpike_arch.Fast_release
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Telemetry = Turnpike_telemetry

type config = {
  verify_delay : int; (* steps from region end to verification *)
  coloring : bool;
  clq : Clq.design option;
  unsafe_ckpt_release : bool;
      (* Fig 16: release checkpoints without coloring — intentionally
         unsound, used to demonstrate why coloring exists. *)
  honor_static_claims : bool;
      (* Trust the pipeline's static release claims ([Claims.t]): claimed
         WAR-free stores and direct-release checkpoints skip the
         quarantine entirely. Sound exactly when the claims are — the
         differential oracle feeds it deliberately wrong claims to show
         the static checker's verdicts have dynamic teeth. *)
  fuel : int;
}

let default_config =
  {
    verify_delay = 40;
    coloring = true;
    clq = Some (Clq.Compact 2);
    unsafe_ckpt_release = false;
    honor_static_claims = false;
    fuel = 4_000_000;
  }

(* Architectural registers the checkpoint coloring covers, and the
   recoveries one run may perform before it is declared failed. *)
let nregs = 32
let max_recoveries = 8

let turnstile_config =
  { default_config with coloring = false; clq = None }

type detection = Sensor | Parity

type outcome = {
  state : Interp.state;
  recoveries : int;
  detections : detection list;
  fast_released_stores : int;
  colored_ckpts : int;
  quarantined_writes : int;
}

exception Recovery_failed of string

exception Out_of_fuel of { recoveries : int; steps : int }

(* Per-region checkpoint records. Colored checkpoints were fast-released
   (their slot already holds the value); fallback checkpoints are
   quarantined: like the hardware store-buffer entry, the value stays
   buffered here and only reaches checkpoint storage when the region
   verifies — the target slot is chosen at drain time. *)
type ckpt_record = Colored of Reg.t * int | Fallback of Reg.t * int (* value *)

type dynamic_region = {
  seq : int;
  static_id : int;
  start_pos : int;
      (* fault-free position (see [exec.delta]) at which the region's head
         re-executes after a recovery restart: the boundary marker is the
         head block's first instruction, so a restart at [(head, 0)]
         replays it at exactly this position *)
  mutable end_step : int; (* -1 while the region is open *)
  mutable undo : (int * int) list; (* (addr, previous value), newest first *)
  mutable ckpts : ckpt_record list; (* newest first *)
}

(* The static claim sites, (block label, body index), built only when the
   config honours them. *)
type claims = {
  bypass : (string * int, unit) Hashtbl.t;
  direct : (string * int, unit) Hashtbl.t;
}

type exec = {
  cfg : config;
  compiled : Pass_pipeline.t;
  code : Interp.program; (* [compiled]'s program, decoded once *)
  st : Interp.state;
  fast : Fast_release.t option; (* [None]: neither a CLQ nor coloring *)
  mutable verified_color : Bytes.t;
      (* per register, the checkpoint color (below [Layout.colors]) whose
         slot holds its latest verified value ('\000', the base slot, when
         none was recorded); grown on demand *)
  live : Reg.t array array array;
      (* a pilot's registers live before each instruction, in increasing
         order, by block index and instruction index (see [converged]);
         empty outside a pilot and its snapshots and forks *)
  claims : claims option;
  mutable open_region : dynamic_region option;
  mutable pending : dynamic_region list; (* closed, unverified; oldest first *)
  mutable next_verify : int;
      (* the step at which the oldest pending region verifies, [max_int]
         when none is pending; kept by [set_pending] *)
  mutable next_seq : int;
  mutable tainted : Reg.Set.t;
  mutable remaining : Fault.t list; (* strike order *)
  mutable detection_step : int; (* earliest pending sensor detection *)
  mutable budget : int;
  mutable delta : int;
      (* [st.steps - delta] is the run's {e position}: the step index the
         same pc would have in a fault-free run. 0 until the first
         recovery; each restart re-executes the restart region's head at
         its recorded [start_pos], so the position rewinds with the pc
         while [st.steps] keeps counting re-executed work. *)
  mutable recoveries : int;
  mutable detections : detection list;
  mutable fast_released : int;
  mutable colored : int;
  mutable quarantined : int;
  tel : Telemetry.sink;
      (* forensic lifecycle sink (default [Telemetry.null]); every
         timestamp below is a deterministic function of executor state,
         so the stream is byte-identical across --jobs counts and across
         snapshot-forked vs from-scratch replays *)
  mutable f_strike_pos : int; (* position of the latest strike, -1 if none *)
  mutable f_taint_use_done : bool; (* first tainted use already emitted *)
  mutable f_reconverged : bool; (* reconverge already emitted *)
}

let position ex = ex.st.Interp.steps - ex.delta

(* ------------------------------------------------------------------ *)
(* Forensic lifecycle events (category "forensics"). Each fault's life is
   strike → (taint_use) → detect → rollback/reexec → reconverge, every
   event stamped with the dynamic step ([ts]), the fault-free position
   and the static (func, block, index) site the pc points at. Reading
   the open region's static id must not materialize the implicit
   pre-boundary region, hence the side-effect-free probe. *)

let forensic_region ex =
  match ex.open_region with Some r -> r.static_id | None -> -1

let forensic_site ex =
  [
    ("func", Telemetry.Str ex.compiled.Pass_pipeline.prog.Prog.func.Func.name);
    ("block", Telemetry.Str (Interp.label ex.code ex.st));
    ("index", Telemetry.Int ex.st.Interp.index);
  ]

let forensic_instant ex name args =
  Telemetry.instant ex.tel ~ts:ex.st.Interp.steps ~cat:"forensics" name
    ~args:
      (args
      @ (("pos", Telemetry.Int (position ex))
         :: ("region", Telemetry.Int (forensic_region ex))
         :: forensic_site ex))

let set_verified_color ex reg c =
  let n = Bytes.length ex.verified_color in
  if reg >= n then begin
    let b = Bytes.make (max (reg + 1) (2 * n)) '\000' in
    Bytes.blit ex.verified_color 0 b 0 n;
    ex.verified_color <- b
  end;
  Bytes.set ex.verified_color reg (Char.chr c)

let verified_color ex reg =
  if reg < Bytes.length ex.verified_color then Char.code (Bytes.get ex.verified_color reg)
  else 0

let set_pending ex pending =
  ex.pending <- pending;
  ex.next_verify <-
    (match pending with r :: _ -> r.end_step + ex.cfg.verify_delay | [] -> max_int)

let start_region ex static_id =
  let r =
    {
      seq = ex.next_seq;
      static_id;
      start_pos = position ex;
      end_step = -1;
      undo = [];
      ckpts = [];
    }
  in
  ex.next_seq <- ex.next_seq + 1;
  ex.open_region <- Some r;
  r

let current_region ex =
  match ex.open_region with
  | Some r -> r
  | None -> start_region ex (-1) (* implicit region before the first boundary marker *)

let quarantined_write ex st addr value =
  let r = current_region ex in
  r.undo <- (addr, Interp.get_mem st addr) :: r.undo;
  ex.quarantined <- ex.quarantined + 1;
  Interp.set_mem st addr value

(* Publish one checkpoint record of a verifying region: a colored one's
   slot already holds the value, a quarantined (fallback) one's value
   drains into storage now. *)
let drain_ckpt ex = function
  | Colored (reg, c) -> set_verified_color ex reg c
  | Fallback (reg, value) ->
    (* Without coloring (Turnstile), a single architected slot per
       register. *)
    let c = match ex.fast with Some fr -> Fast_release.drain_color fr ~reg | None -> 0 in
    Interp.set_mem ex.st (Layout.ckpt_slot ~reg ~color:c) value;
    set_verified_color ex reg c

(* [ckpts] is newest first: drain the older records before each one, so
   the last checkpoint of a register in the region wins. *)
let rec drain_ckpts ex = function
  | [] -> ()
  | record :: older ->
    drain_ckpts ex older;
    drain_ckpt ex record

let verify_region ex (r : dynamic_region) =
  (* Commit: drop the undo log, promote the region's colors and clear its
     CLQ entry, publish checkpoint locations, and drain quarantined
     (fallback) checkpoint values into storage. *)
  (match ex.fast with
  | Some fr ->
    Fast_release.verify fr ~region:r.seq
      ~unverified:
        (List.length ex.pending + match ex.open_region with Some _ -> 1 | None -> 0)
  | None -> ());
  drain_ckpts ex r.ckpts

let rec process_verifications ex ~now =
  match ex.pending with
  | r :: rest when r.end_step + ex.cfg.verify_delay <= now ->
    set_pending ex rest;
    verify_region ex r;
    process_verifications ex ~now
  | _ -> ()

let close_open_region ex ~now =
  match ex.open_region with
  | None -> ()
  | Some r ->
    r.end_step <- now;
    set_pending ex (ex.pending @ [ r ]);
    ex.open_region <- None

let on_boundary ex static_id =
  let now = ex.st.Interp.steps in
  close_open_region ex ~now;
  process_verifications ex ~now;
  (match ex.fast with
  | Some fr -> Fast_release.enable_at_boundary fr ~unverified:(List.length ex.pending)
  | None -> ());
  ignore (start_region ex static_id)

(* The hooks fire while the pc still points at the executing instruction,
   so the current (block label, body index) identifies the static claim
   site. *)
let at_claimed_site ex sites =
  match ex.claims with
  | Some c -> Hashtbl.mem (sites c) (Interp.label ex.code ex.st, ex.st.Interp.index)
  | None -> false

let rec undo_has addr = function
  | [] -> false
  | (a, _) :: older -> a = addr || undo_has addr older

let rec pending_has addr = function
  | [] -> false
  | (p : dynamic_region) :: rest -> undo_has addr p.undo || pending_has addr rest

let on_store ex st addr value =
  if at_claimed_site ex (fun c -> c.bypass) then begin
    (* Statically proven WAR-free: release without an undo entry. *)
    ex.fast_released <- ex.fast_released + 1;
    Interp.set_mem st addr value
  end
  else
  let r = current_region ex in
  (* CLQ fast release: WAR-free regular stores skip the quarantine. The
     in-order constraint (no pending quarantined write to the same
     address) mirrors the hardware check; the undo logs are walked only
     for a store the CLQ would release. *)
  let fast =
    (match ex.fast with
    | Some fr -> Fast_release.war_free fr ~region:r.seq addr
    | None -> false)
    && not (undo_has addr r.undo || pending_has addr ex.pending)
  in
  if fast then begin
    ex.fast_released <- ex.fast_released + 1;
    Interp.set_mem st addr value
  end
  else quarantined_write ex st addr value

(* Only a core with a CLQ records loads, so only there does a load open
   the implicit pre-boundary region. *)
let on_load ex addr =
  match (ex.fast, ex.cfg.clq) with
  | Some fr, Some _ -> ignore (Fast_release.record_load fr ~region:(current_region ex).seq addr)
  | Some _, None | None, _ -> ()

let on_ckpt ex st reg =
  let r = current_region ex in
  let value = Interp.get_reg st reg in
  if at_claimed_site ex (fun c -> c.direct) then begin
    (* Statically claimed direct release: the slot is written and counted
       verified immediately, with no per-region record to drain or roll
       back — sound only under the claim's single-site/dominance proof. *)
    set_verified_color ex reg 0;
    Interp.set_mem st (Layout.ckpt_slot ~reg ~color:0) value
  end
  else if ex.cfg.unsafe_ckpt_release then begin
    (* Fig 16: direct release without coloring — unsound by design. *)
    r.ckpts <- Fallback (reg, value) :: r.ckpts;
    set_verified_color ex reg 0;
    Interp.set_mem st (Layout.ckpt_slot ~reg ~color:0) value
  end
  else
    match ex.fast with
    | Some fr when Reg.is_physical reg -> (
      match Fast_release.color fr ~reg ~region:r.seq with
      | Some c ->
        ex.colored <- ex.colored + 1;
        r.ckpts <- Colored (reg, c) :: r.ckpts;
        Interp.set_mem st (Layout.ckpt_slot ~reg ~color:c) value
      | None ->
        ex.quarantined <- ex.quarantined + 1;
        r.ckpts <- Fallback (reg, value) :: r.ckpts)
    | Some _ | None ->
      ex.quarantined <- ex.quarantined + 1;
      r.ckpts <- Fallback (reg, value) :: r.ckpts

let read_verified_slot ex reg =
  Interp.get_mem ex.st (Layout.ckpt_slot ~reg ~color:(verified_color ex reg))

let restore_register ex reg =
  match Hashtbl.find_opt ex.compiled.Pass_pipeline.recovery_exprs reg with
  | Some expr ->
    Recovery_expr.eval ~read_slot:(read_verified_slot ex) expr
  | None -> read_verified_slot ex reg

let recover ex ~kind =
  if ex.recoveries >= max_recoveries then
    raise (Recovery_failed "recovery limit exceeded");
  if Telemetry.enabled ex.tel then
    forensic_instant ex "detect"
      [
        ("kind", Telemetry.Str (match kind with Sensor -> "sensor" | Parity -> "parity"));
        ( "latency",
          Telemetry.Int
            (if ex.f_strike_pos >= 0 then position ex - ex.f_strike_pos else -1) );
      ];
  ex.recoveries <- ex.recoveries + 1;
  ex.detections <- kind :: ex.detections;
  let now = ex.st.Interp.steps in
  close_open_region ex ~now;
  (* Oldest unverified region restarts (the paper's "region starting after
     the most recently verified boundary"). *)
  let restart =
    match ex.pending with
    | r :: _ -> r
    | [] -> raise (Recovery_failed "no unverified region to restart")
  in
  let discarded = ex.pending in
  (* Discard: undo every unverified region's quarantined writes, newest
     region first, newest write first. *)
  List.iter
    (fun r -> List.iter (fun (a, v) -> Interp.set_mem ex.st a v) r.undo)
    (List.rev ex.pending);
  (match ex.fast with
  | Some fr -> Fast_release.discard fr ~regions:(List.map (fun r -> r.seq) ex.pending)
  | None -> ());
  set_pending ex [];
  ex.tainted <- Reg.Set.empty;
  (* Restore the restart region's live-in registers from verified
     checkpoint storage (reconstructing pruned ones). *)
  (match Pass_pipeline.region_info ex.compiled restart.static_id with
  | Some info ->
    if Telemetry.enabled ex.tel then begin
      (* [delta] is still the pre-recovery rebase here, so [now - delta]
         is the position the fault-free run had reached; the reexec span
         covers the positions about to be replayed. *)
      let pos = now - ex.delta in
      let undone =
        List.fold_left (fun acc r -> acc + List.length r.undo) 0 discarded
      in
      forensic_instant ex "rollback"
        [
          ("restart_region", Telemetry.Int restart.static_id);
          ("restart_block", Telemetry.Str info.Pass_pipeline.head);
          ("discarded_regions", Telemetry.Int (List.length discarded));
          ("undone_writes", Telemetry.Int undone);
          ("rewind", Telemetry.Int (pos - restart.start_pos));
        ];
      Telemetry.complete ex.tel ~ts:restart.start_pos
        ~dur:(pos - restart.start_pos) ~cat:"forensics" "reexec"
        ~args:[ ("restart_region", Telemetry.Int restart.static_id) ]
    end;
    List.iter
      (fun reg -> Interp.set_reg ex.st reg (restore_register ex reg))
      info.Pass_pipeline.live_in;
    ex.st.Interp.block <- Interp.block_index ex.code info.Pass_pipeline.head;
    ex.st.Interp.index <- 0;
    ex.st.Interp.halted <- false;
    (* The restart region's boundary marker is its head block's first
       instruction, so the next step re-executes it at the position it
       first ran at: rebase [delta] so [position ex] rewinds with the pc. *)
    ex.delta <- now - restart.start_pos
  | None ->
    raise
      (Recovery_failed
         (Printf.sprintf "no region info for static region %d" restart.static_id)))

(* Taint tracking models the paper's hardened-AGU + register-parity fault
   model: the struck register poisons derived values; using any tainted
   register for addressing triggers immediate (parity) detection before
   the access executes. *)
let address_uses_taint ex =
  match Interp.instr ex.code ex.st with
  | Some (Instr.Load (_, base, _, _)) -> Reg.Set.mem base ex.tainted
  | Some (Instr.Store (_, base, _, _)) -> Reg.Set.mem base ex.tainted
  | Some _ | None -> false

let propagate_taint ex =
  (* Nothing to propagate, or cleanse, while no register is tainted. *)
  let current = if Reg.Set.is_empty ex.tainted then None else Interp.instr ex.code ex.st in
  match current with
  | Some i ->
    let input_tainted =
      List.exists (fun r -> Reg.Set.mem r ex.tainted) (Instr.uses i)
    in
    if input_tainted && Telemetry.enabled ex.tel && not ex.f_taint_use_done then begin
      ex.f_taint_use_done <- true;
      forensic_instant ex "taint_use"
        [
          ( "tainted_inputs",
            Telemetry.Str
              (String.concat ","
                 (List.filter_map
                    (fun r ->
                      if Reg.Set.mem r ex.tainted then Some (Reg.to_string r)
                      else None)
                    (Instr.uses i))) );
        ]
    end;
    let defs = Instr.defs i in
    if input_tainted then
      ex.tainted <- List.fold_left (fun s d -> Reg.Set.add d s) ex.tainted defs
    else
      (* A clean redefinition cleanses the register. Loads always cleanse:
         memory contents are either verified or will be rolled back. *)
      ex.tainted <- List.fold_left (fun s d -> Reg.Set.remove d s) ex.tainted defs
  | None -> ()

let claims_of config (compiled : Pass_pipeline.t) =
  if not config.honor_static_claims then None
  else begin
    let table sites =
      let tbl = Hashtbl.create 16 in
      List.iter (fun site -> Hashtbl.replace tbl site ()) sites;
      tbl
    in
    let c = compiled.Pass_pipeline.claims in
    Some
      {
        bypass = table c.Turnpike_compiler.Claims.bypass_stores;
        direct = table c.Turnpike_compiler.Claims.direct_ckpts;
      }
  end

let make_exec ?(config = default_config) ?(faults = []) ?(tel = Telemetry.null)
    (compiled : Pass_pipeline.t) =
  {
    cfg = config;
    compiled;
    code = Interp.decode compiled.Pass_pipeline.prog;
    st = Interp.init compiled.Pass_pipeline.prog;
    fast =
      Fast_release.create ~clq:config.clq ~coloring:config.coloring ~colors:Layout.colors
        ~nregs;
    verified_color = Bytes.make nregs '\000';
    live = [||];
    claims = claims_of config compiled;
    open_region = None;
    pending = [];
    next_verify = max_int;
    next_seq = 0;
    tainted = Reg.Set.empty;
    remaining = faults;
    detection_step = max_int;
    budget = config.fuel;
    delta = 0;
    recoveries = 0;
    detections = [];
    fast_released = 0;
    colored = 0;
    quarantined = 0;
    tel;
    f_strike_pos = -1;
    f_taint_use_done = false;
    f_reconverged = false;
  }

(* ------------------------------------------------------------------ *)
(* Snapshots. A snapshot is a frozen executor: the pilot takes one with
   [copy] at the top of the step loop, and a fault forks from it with
   [copy ~faults ~tel], so it carries its own config and compiled program.
   A copy gets fresh copies of only the state that can still change:
   registers, the open region's record, CLQ and coloring tables, verified
   colors. Memory is forked, not copied: the copy shares the original's
   pages and each side copies a page on its next write to it. What no
   executor writes is shared: the config, the compiled and decoded
   program, the claim and live-register tables, the immutable lists and
   the closed regions, which [quarantined_write], [on_ckpt] and
   [close_open_region] never touch (they write only the open one).
   Nothing writes a snapshot, so every domain of a campaign forks it
   freely. *)

type snapshot = exec

(* A snapshot's step is the pilot's [st.steps], which is also its
   fault-free position: the pilot never recovers. *)
let snapshot_step (s : snapshot) = s.st.Interp.steps

(* The open region's undo/ckpt lists are immutable and safely shared;
   its record's mutable cells must be fresh. *)
let copy_region (r : dynamic_region) = { r with end_step = r.end_step }

(* Every other field is copied by value. Snapshots are taken only at a
   pilot's loop top, where those fields hold what a from-scratch run has
   there: no taint, detection, recovery or forensic mark yet, and
   [budget = fuel - steps], which the loop keeps invariant (the budget
   drops exactly when [Interp.step] counts a step). *)
let copy ?(faults = []) ?(tel = Telemetry.null) ex =
  let st = ex.st in
  {
    ex with
    st = { st with Interp.regs = Array.copy st.Interp.regs; mem = Mem.fork st.Interp.mem };
    fast = Option.map Fast_release.copy ex.fast;
    verified_color = Bytes.copy ex.verified_color;
    open_region = Option.map copy_region ex.open_region;
    remaining = faults;
    tel;
  }

(* A fault-free run a fork measures convergence against: its snapshots,
   in ascending step order, and its final, drained outcome. *)
type pilot = { snapshots : snapshot array; outcome : outcome }

(* The registers live before each instruction of [compiled], indexed as
   [Interp] indexes its pc: by block in layout order, then by
   instruction, the terminator last. *)
let live_table (compiled : Pass_pipeline.t) =
  let func = compiled.Pass_pipeline.prog.Prog.func in
  let live = Liveness.compute (Cfg.build func) in
  Array.of_list
    (List.map
       (fun l ->
         Array.map
           (fun regs -> Array.of_list (Reg.Set.elements regs))
           (Liveness.live_before_each live (Func.block func l)))
       (Func.labels func))

(* Whether a fork with no fault, detection or taint left has rejoined a
   state the pilot had: the pc [(block, index)], [value i r] in each
   register [r] live there ([i] its place in the live table's array), and
   [mem] below checkpoint storage. No recovery can follow, so a dead
   register is written before it is read on every path, and the rest of
   the run has the pilot's control flow, memory writes and step count.
   Checkpoint storage is only read by recovery. *)
let rejoins ex ~block ~index ~value mem =
  let st = ex.st in
  st.Interp.block = block
  && st.Interp.index = index
  && (not st.Interp.halted)
  && begin
       let live = ex.live.(block).(index) in
       let rec same i =
         i = Array.length live || (Interp.get_reg st live.(i) = value i live.(i) && same (i + 1))
       in
       same 0
     end
  && Mem.first_diff ~hi:Layout.ckpt_base st.Interp.mem mem = None

let converged ex (s : snapshot) =
  let ss = s.st in
  rejoins ex ~block:ss.Interp.block ~index:ss.Interp.index
    ~value:(fun _ r -> Interp.get_reg ss r)
    ss.Interp.mem

(* A fork's own state at its first strike, taken while it is still on the
   fault-free path: up to that step it has replayed the pilot exactly, so
   this is the pilot's state at [site_pos]. It keeps what [rejoins]
   compares and nothing more: the pc, the values of the registers live
   there (in the live table's order) and a fork of memory. *)
type strike_site = {
  site_pos : int;
  site_block : int;
  site_index : int;
  site_live : int array;
  site_mem : Mem.t;
}

let strike_site ex =
  let st = ex.st in
  {
    site_pos = position ex;
    site_block = st.Interp.block;
    site_index = st.Interp.index;
    site_live = Array.map (Interp.get_reg st) ex.live.(st.Interp.block).(st.Interp.index);
    site_mem = Mem.fork st.Interp.mem;
  }

let rejoined_site ex s =
  rejoins ex ~block:s.site_block ~index:s.site_index
    ~value:(fun i _ -> s.site_live.(i))
    s.site_mem

let finish ex =
  {
    state = ex.st;
    recoveries = ex.recoveries;
    detections = List.rev ex.detections;
    fast_released_stores = ex.fast_released;
    colored_ckpts = ex.colored;
    quarantined_writes = ex.quarantined;
  }

(* The step loop. Faults strike, detections fire, the pilot captures and
   a fork checks convergence only at steps known in advance, and nothing
   else needs a step of its own while no register is tainted and no
   detection is pending: [next_due] is the earliest such step, and up to
   it [run_quiet] runs plain interpreter steps, verifying regions as
   their windows close. Every other step takes the full path below, which
   checks everything in a fixed order. *)

(* Pilot snapshots: one every [every] steps, starting at step 0. *)
type capture = { every : int; mutable next : int; mutable taken : snapshot list }

let quiet ex = ex.detection_step = max_int && Reg.Set.is_empty ex.tainted

let run_quiet ex hooks ~until =
  let st = ex.st in
  while st.Interp.steps < until && (not st.Interp.halted) && ex.budget > 0 do
    if st.Interp.steps >= ex.next_verify then process_verifications ex ~now:st.Interp.steps;
    Interp.step hooks ex.code st;
    ex.budget <- ex.budget - 1
  done

let drive ?capture ?pilot ex =
  let st = ex.st in
  let hooks =
    {
      Interp.on_ckpt = (fun st reg -> on_ckpt ex st reg);
      on_boundary = (fun _ id -> on_boundary ex id);
      on_event = (fun _ -> ());
      on_access =
        (fun e addr ->
          match e with
          | Trace.Load _ -> on_load ex addr
          | Trace.Alu _ | Trace.Store _ | Trace.Ckpt _ | Trace.Branch _
          | Trace.Boundary _ ->
            ());
      write_mem = (fun st addr v -> on_store ex st addr v);
    }
  in
  let detection_pending () = ex.detection_step < max_int in
  (* Convergence checks. The first is at the fork's own strike site: a
     recovery restarts a region that began before the strike, so the
     position comes back to it, and [site] holds the pilot's state there
     until it has been compared once. The others use a cursor over the
     pilot snapshots strictly ahead of the fork position. The cursor never
     moves backwards — after a recovery the position rewinds and simply
     catches up to it again. *)
  let site = ref None in
  let oidx = ref 0 in
  (match pilot with
  | Some p ->
    let pos0 = position ex and snaps = p.snapshots in
    while !oidx < Array.length snaps && snapshot_step snaps.(!oidx) <= pos0 do
      incr oidx
    done
  | None -> ());
  (* The next step at which a quiet run must stop: the next strike, else
     the next convergence check (the strike site while the position has
     not passed it, and the cursor's snapshot, as positions in steps), and
     the pilot's next capture. *)
  let next_due () =
    let strike_or_check =
      match (ex.remaining, pilot) with
      | (f : Fault.t) :: _, _ -> f.Fault.at_step
      | [], Some p ->
        let snap =
          if !oidx < Array.length p.snapshots then snapshot_step p.snapshots.(!oidx) + ex.delta
          else max_int
        in
        (match !site with
        | Some s when s.site_pos + ex.delta >= st.Interp.steps -> min snap (s.site_pos + ex.delta)
        | Some _ | None -> snap)
      | [], None -> max_int
    in
    match capture with Some c -> min c.next strike_or_check | None -> strike_or_check
  in
  let early = ref None in
  (* The loop continues past program exit while a detection is still
     pending: the sensors keep watching through the final WCDL windows, so
     an error near the end is detected (and recovered) after the last
     instruction retires. *)
  while
    !early = None
    && ((not st.Interp.halted) || detection_pending ())
    && ex.budget > 0
  do
    (* Reconvergence instant: the first loop top after a recovery at which
       no fault remains in flight, no detection is pending and no taint is
       live — from here the remaining run is fully determined, i.e. it
       deterministically rejoins the fault-free pilot. This is a pure
       state predicate (never a comparison against a pilot snapshot), so
       forked and from-scratch replays emit it at the same step; it is
       evaluated BEFORE the convergence early exit below so a fork that
       adopts the pilot suffix in this very iteration still emits it. A
       quiet run changes none of its inputs, so testing it at each loop top
       tests it at every step. *)
    if
      Telemetry.enabled ex.tel
      && (not ex.f_reconverged)
      && ex.detections <> []
      && ex.remaining = []
      && (not (detection_pending ()))
      && Reg.Set.is_empty ex.tainted
    then begin
      ex.f_reconverged <- true;
      forensic_instant ex "reconverge"
        [ ("recoveries", Telemetry.Int ex.recoveries) ]
    end;
    let until = if quiet ex then next_due () else st.Interp.steps in
    if st.Interp.steps < until then run_quiet ex hooks ~until
    else begin
      (match capture with
      | Some c when st.Interp.steps = c.next ->
        c.taken <- copy ex :: c.taken;
        c.next <- c.next + c.every
      | Some _ | None -> ());
      (* Convergence early exit: once the fault has struck, its detection
         has been handled and no taint is live, a fork whose architectural
         state (pc, live registers, non-checkpoint memory) matches the
         pilot's at the same fault-free position has a fully determined
         future — the rest of the run is the pilot's suffix. Dead
         registers and checkpoint storage are excluded from the
         comparison: the program writes a dead register before it reads
         it, and it reads checkpoint storage, whose slot contents and
         coloring history legitimately differ after a recovery, only
         during recovery itself, which can no longer occur. The strike
         site is compared first; when it differs (a store released
         between the strike and its detection is not undone), the
         pilot's later snapshots are compared instead. *)
      (match pilot with
      | Some p
        when ex.remaining = []
             && (not (detection_pending ()))
             && Reg.Set.is_empty ex.tainted ->
        let pos = position ex in
        let at_site =
          match !site with
          | Some s when s.site_pos = pos ->
            site := None;
            rejoined_site ex s
          | Some _ | None -> false
        in
        let n = Array.length p.snapshots in
        let at_snapshot () =
          while !oidx < n && snapshot_step p.snapshots.(!oidx) < pos do
            incr oidx
          done;
          !oidx < n
          && snapshot_step p.snapshots.(!oidx) = pos
          &&
          let c = converged ex p.snapshots.(!oidx) in
          if not c then incr oidx;
          c
        in
        if at_site || at_snapshot () then begin
          let left = p.outcome.state.Interp.steps - pos in
          if ex.budget >= left then early := Some left
          else
            (* The determined suffix is longer than the remaining fuel:
               report exhaustion exactly where the full replay would. *)
            raise
              (Out_of_fuel
                 { recoveries = ex.recoveries; steps = st.Interp.steps + ex.budget })
        end
      | Some _ | None -> ());
      if !early = None then begin
        let now = st.Interp.steps in
        (* Detection strictly precedes any verification at the same
           timestamp: a region is verified only when NO error was detected
           during its window. A halted program jumps straight to the
           detection time. *)
        if detection_pending () && (now >= ex.detection_step || st.Interp.halted) then begin
          ex.detection_step <- max_int;
          recover ex ~kind:Sensor
        end
        else begin
          process_verifications ex ~now;
          (* Strikes land at their absolute step; several faults can be in
             flight, each scheduling its own detection — the earliest
             pending one triggers recovery. Steps are monotonically
             increasing, so faults scheduled inside a re-executed window
             simply fire once. *)
          (match ex.remaining with
          | (f : Fault.t) :: rest when now >= f.Fault.at_step ->
            ex.remaining <- rest;
            (* Only the first strike of a fork finds it still on the
               fault-free path: the next lands with a detection pending or
               after a recovery. *)
            if Option.is_some pilot && ex.recoveries = 0 && quiet ex then
              site := Some (strike_site ex);
            Interp.set_reg st f.Fault.reg
              (Interp.get_reg st f.Fault.reg lxor f.Fault.xor_mask);
            ex.tainted <- Reg.Set.add f.Fault.reg ex.tainted;
            if Telemetry.enabled ex.tel then begin
              ex.f_strike_pos <- position ex;
              ex.f_taint_use_done <- false;
              ex.f_reconverged <- false;
              forensic_instant ex "strike"
                [
                  ("reg", Telemetry.Str (Reg.to_string f.Fault.reg));
                  ("xor_mask", Telemetry.Int f.Fault.xor_mask);
                  ("at_step", Telemetry.Int f.Fault.at_step);
                ]
            end;
            (* Detected within the worst-case latency; deterministic
               sample. *)
            let d =
              1
              + (Fault.mix f.Fault.at_step f.Fault.xor_mask
                mod max 1 ex.cfg.verify_delay)
            in
            ex.detection_step <- min ex.detection_step (now + d)
          | _ :: _ | [] -> ());
          (* Parity/AGU path: a tainted register about to be used for
             addressing is caught before the access. *)
          if detection_pending () && address_uses_taint ex then begin
            ex.detection_step <- max_int;
            recover ex ~kind:Parity
          end
          else begin
            propagate_taint ex;
            Interp.step hooks ex.code st;
            ex.budget <- ex.budget - 1
          end
        end
      end
    end
  done;
  match !early with
  | Some left ->
    (* Adopt the pilot's final (drained) architectural state; [steps] keeps
       counting this fork's own re-executed work plus the skipped suffix,
       exactly as the full replay would have. The outcome gets its own
       registers and a fork of the pilot's memory: the pilot's state is
       shared by every fork of the campaign, on every domain. *)
    let final = (Option.get pilot).outcome.state in
    {
      (finish ex) with
      state =
        {
          final with
          Interp.regs = Array.copy final.Interp.regs;
          mem = Mem.fork final.Interp.mem;
          steps = st.Interp.steps + left;
        };
    }
  | None ->
    if not st.Interp.halted then
      raise (Out_of_fuel { recoveries = ex.recoveries; steps = st.Interp.steps });
    (* Every region is error-free once the program has halted cleanly (no
       detection outlived the loop): close the still-open region and verify
       everything pending, so quarantined writes commit and buffered
       fallback checkpoints reach checkpoint storage. *)
    close_open_region ex ~now:st.Interp.steps;
    process_verifications ex ~now:max_int;
    finish ex

let by_step faults =
  List.sort (fun (a : Fault.t) b -> compare a.Fault.at_step b.Fault.at_step) faults

let run ?(faults = []) ?(config = default_config) ?tel (compiled : Pass_pipeline.t) =
  drive (make_exec ~config ~faults:(by_step faults) ?tel compiled)

let capture_pilot ?(config = default_config) ~every (compiled : Pass_pipeline.t) =
  if every <= 0 then invalid_arg "Recovery.capture_pilot: every must be positive";
  (* A fault-free run never recovers, so [steps] strictly increases and
     each multiple of [every] is reached once, at a loop top. *)
  let capture = { every; next = 0; taken = [] } in
  (* Built once here, eagerly, and shared by every snapshot and fork: a
     lazy value must not be forced from two domains at once. *)
  let ex = { (make_exec ~config compiled) with live = live_table compiled } in
  let outcome = drive ~capture ex in
  (* Publish the final memory as a fork, which owns no page: every fork
     that adopts the pilot's suffix forks it in turn, from any domain, and
     forking a memory that owns no page does not write to it. *)
  let final = outcome.state in
  {
    snapshots = Array.of_list (List.rev capture.taken);
    outcome =
      { outcome with state = { final with Interp.mem = Mem.fork final.Interp.mem } };
  }

(* Every snapshot carries the config and program it runs; the step-0
   one stands for the pilot. *)
let captured_under pilot ~config compiled =
  let s = pilot.snapshots.(0) in
  s.cfg = config && s.compiled == compiled

let resume ?tel pilot ~from ~faults =
  drive ~pilot (copy ~faults:(by_step faults) ?tel from)
