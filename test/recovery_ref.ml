(* Reference recovery executor for differential tests: the [Recovery] that
   the due-step-gated one in [Turnpike_resilience] replaced, kept as it
   was, with four changes: [resume] takes the fault list to fork
   ([~faults], sorted as [run] sorts it) where it took one fault, so that
   fault-free and multi-fault runs can be forked too; a load's address
   comes from the interpreter's [on_access] hook, which now reports it,
   instead of its event; [converged] compares only the registers live at
   the pc, as [Recovery]'s does, computing that liveness afresh with the
   reference analyses at every check; and a fork captures its whole state
   at its first strike and compares against it, before the snapshots,
   when its position comes back there, as [Recovery]'s does with a lean
   copy. Every loop iteration re-checks strikes, detections,
   verifications and the convergence oracle, and every checkpoint
   location lives in a hash table. Slower, but the new executor must
   produce exactly its outcomes, exceptions and forensic bytes. *)

(* Region-transactional executor: the functional (architectural) model of
   Turnstile/Turnpike error containment and recovery.

   Execution proceeds on the interpreter with these semantics layered on:
   - quarantined stores (and fallback checkpoints) apply to memory but are
     undo-logged per dynamic region; a region's log is dropped (committed)
     when the region verifies, [verify_delay] steps after it ends;
   - WAR-free regular stores (decided by the same CLQ logic the hardware
     uses) and colored checkpoint stores are released immediately with no
     undo entry;
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
   here end to end against a golden run. *)

open Turnpike_ir
module Fault = Turnpike_resilience.Fault
module Clq = Turnpike_arch.Clq
module Coloring = Turnpike_arch.Coloring
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

(* Where the latest verified checkpoint of a register lives. *)
type slot_loc = Base | Color of int

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
  mutable end_step : int option;
  mutable undo : (int * int) list; (* (addr, previous value), newest first *)
  mutable ckpts : ckpt_record list; (* newest first *)
}

type exec = {
  cfg : config;
  compiled : Pass_pipeline.t;
  code : Interp.program; (* [compiled]'s program, decoded once *)
  st : Interp.state;
  clq : Clq.t option;
  col : Coloring.t option;
  verified_loc : (Reg.t, slot_loc) Hashtbl.t;
  claim_bypass : (string * int, unit) Hashtbl.t;
  claim_direct : (string * int, unit) Hashtbl.t;
  mutable open_region : dynamic_region option;
  mutable pending : dynamic_region list; (* closed, unverified; oldest first *)
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

let slot_addr reg = function
  | Base -> Layout.ckpt_slot ~reg ~color:0
  | Color c -> Layout.ckpt_slot ~reg ~color:c

let current_region ex =
  match ex.open_region with
  | Some r -> r
  | None ->
    (* Implicit region before the first boundary marker. *)
    let r =
      {
        seq = ex.next_seq;
        static_id = -1;
        start_pos = position ex;
        end_step = None;
        undo = [];
        ckpts = [];
      }
    in
    ex.next_seq <- ex.next_seq + 1;
    ex.open_region <- Some r;
    r

let quarantined_write ex st addr value =
  let r = current_region ex in
  r.undo <- (addr, Interp.get_mem st addr) :: r.undo;
  ex.quarantined <- ex.quarantined + 1;
  Interp.set_mem st addr value

let verify_region ex (r : dynamic_region) =
  (* Commit: drop the undo log, promote the region's colors, publish
     checkpoint locations, and drain quarantined (fallback) checkpoint
     values into storage. Records are replayed oldest-first so the last
     checkpoint of a register in the region wins. *)
  (match ex.col with
  | Some col -> Coloring.on_region_verified col ~region:r.seq
  | None -> ());
  List.iter
    (fun record ->
      match record with
      | Colored (reg, c) -> Hashtbl.replace ex.verified_loc reg (Color c)
      | Fallback (reg, value) -> (
        match ex.col with
        | Some col ->
          (* Drain-time slot choice: a free color if one exists, else
             overwrite the currently verified color (the value being
             replaced is superseded by this newer verified one). *)
          let c =
            match Coloring.free_color col ~reg with
            | Some c -> c
            | None -> Option.value (Coloring.verified_color col ~reg) ~default:0
          in
          Interp.set_mem ex.st (slot_addr reg (Color c)) value;
          Coloring.force_verified col ~reg ~color:c;
          Hashtbl.replace ex.verified_loc reg (Color c)
        | None ->
          (* Turnstile: a single architected slot per register. *)
          Interp.set_mem ex.st (slot_addr reg Base) value;
          Hashtbl.replace ex.verified_loc reg Base))
    (List.rev r.ckpts);
  (match ex.clq with
  | Some clq ->
    Clq.on_region_verified clq ~region:r.seq;
    Clq.maybe_enable clq
      ~unverified_regions:
        (List.length ex.pending + match ex.open_region with Some _ -> 1 | None -> 0)
  | None -> ())

let process_verifications ex ~now =
  let rec go () =
    match ex.pending with
    | r :: rest
      when (match r.end_step with Some e -> e + ex.cfg.verify_delay <= now | None -> false)
      ->
      ex.pending <- rest;
      verify_region ex r;
      go ()
    | _ -> ()
  in
  go ()

let close_open_region ex ~now =
  match ex.open_region with
  | None -> ()
  | Some r ->
    r.end_step <- Some now;
    ex.pending <- ex.pending @ [ r ];
    ex.open_region <- None

let on_boundary ex static_id =
  let now = ex.st.Interp.steps in
  close_open_region ex ~now;
  process_verifications ex ~now;
  (match ex.clq with
  | Some clq ->
    Clq.maybe_enable clq ~unverified_regions:(List.length ex.pending)
  | None -> ());
  let r =
    {
      seq = ex.next_seq;
      static_id;
      start_pos = position ex;
      end_step = None;
      undo = [];
      ckpts = [];
    }
  in
  ex.next_seq <- ex.next_seq + 1;
  ex.open_region <- Some r

(* The hooks fire while the pc still points at the executing instruction,
   so the current (block label, body index) identifies the static claim
   site. *)
let at_claimed_site ex tbl =
  Hashtbl.mem tbl (Interp.label ex.code ex.st, ex.st.Interp.index)

let on_store ex st addr value =
  if ex.cfg.honor_static_claims && at_claimed_site ex ex.claim_bypass then begin
    (* Statically proven WAR-free: release without an undo entry. *)
    ex.fast_released <- ex.fast_released + 1;
    Interp.set_mem st addr value
  end
  else
  let r = current_region ex in
  (* CLQ fast release: WAR-free regular stores skip the quarantine. The
     in-order constraint (no pending quarantined write to the same
     address) mirrors the hardware check. *)
  let pending_same_addr =
    List.exists (fun (a, _) -> a = addr) r.undo
    || List.exists (fun p -> List.exists (fun (a, _) -> a = addr) p.undo) ex.pending
  in
  let fast =
    (match ex.clq with
    | Some clq -> Clq.war_free clq ~region:r.seq addr
    | None -> false)
    && not pending_same_addr
  in
  if fast then begin
    ex.fast_released <- ex.fast_released + 1;
    Interp.set_mem st addr value
  end
  else quarantined_write ex st addr value

let on_load ex addr =
  match ex.clq with
  | Some clq -> ignore (Clq.record_load clq ~region:(current_region ex).seq addr)
  | None -> ()

let on_ckpt ex st reg =
  let r = current_region ex in
  let value = Interp.get_reg st reg in
  if ex.cfg.honor_static_claims && at_claimed_site ex ex.claim_direct then begin
    (* Statically claimed direct release: the slot is written and counted
       verified immediately, with no per-region record to drain or roll
       back — sound only under the claim's single-site/dominance proof. *)
    Hashtbl.replace ex.verified_loc reg Base;
    Interp.set_mem st (slot_addr reg Base) value
  end
  else if ex.cfg.unsafe_ckpt_release then begin
    (* Fig 16: direct release without coloring — unsound by design. *)
    r.ckpts <- Fallback (reg, value) :: r.ckpts;
    Hashtbl.replace ex.verified_loc reg Base;
    Interp.set_mem st (slot_addr reg Base) value
  end
  else
    match ex.col with
    | Some col when Reg.is_physical reg -> (
      match Coloring.try_assign col ~reg ~region:r.seq with
      | Some c ->
        ex.colored <- ex.colored + 1;
        r.ckpts <- Colored (reg, c) :: r.ckpts;
        Interp.set_mem st (slot_addr reg (Color c)) value
      | None ->
        ex.quarantined <- ex.quarantined + 1;
        r.ckpts <- Fallback (reg, value) :: r.ckpts)
    | Some _ | None ->
      ex.quarantined <- ex.quarantined + 1;
      r.ckpts <- Fallback (reg, value) :: r.ckpts

let read_verified_slot ex reg =
  let loc = Option.value (Hashtbl.find_opt ex.verified_loc reg) ~default:Base in
  Interp.get_mem ex.st (slot_addr reg loc)

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
  (match ex.col with
  | Some col ->
    Coloring.discard_unverified col ~regions:(List.map (fun r -> r.seq) ex.pending)
  | None -> ());
  (match ex.clq with
  | Some clq ->
    List.iter (fun r -> Clq.on_region_verified clq ~region:r.seq) ex.pending
  | None -> ());
  ex.pending <- [];
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

(* Deterministic mixer for sampling the sensor detection latency. *)
let hash_mix a b =
  let z = ref ((a * 0x9E3779B9) + (b * 0x85EBCA6B) + 0x165667B1) in
  z := !z lxor (!z lsr 15);
  z := !z * 0x2C1B3C6D;
  z := !z lxor (!z lsr 13);
  !z land max_int

let claim_table enabled sites =
  let tbl = Hashtbl.create 16 in
  if enabled then List.iter (fun site -> Hashtbl.replace tbl site ()) sites;
  tbl

let make_exec ?(config = default_config) ?(faults = []) ?(tel = Telemetry.null)
    (compiled : Pass_pipeline.t) =
  {
    cfg = config;
    compiled;
    code = Interp.decode compiled.Pass_pipeline.prog;
    st = Interp.init compiled.Pass_pipeline.prog;
    clq = Option.map Clq.create config.clq;
    col = (if config.coloring then Some (Coloring.create ~nregs ()) else None);
    verified_loc = Hashtbl.create 32;
    claim_bypass =
      claim_table config.honor_static_claims
        compiled.Pass_pipeline.claims.Turnpike_compiler.Claims.bypass_stores;
    claim_direct =
      claim_table config.honor_static_claims
        compiled.Pass_pipeline.claims.Turnpike_compiler.Claims.direct_ckpts;
    open_region = None;
    pending = [];
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
(* Snapshots: a copy of the whole executor (interpreter state plus
   region/quarantine/CLQ/coloring bookkeeping) taken at the top of the
   step loop, from which faulted runs can be forked byte-identically.
   Memory is forked, not copied: a snapshot shares the pilot's pages, the
   pilot copies a page on its next write to it, and a fork shares the
   snapshot's pages the same way. Nothing writes a snapshot, so every
   domain of a campaign reads and forks it freely. Every snapshot of a
   pilot carries the pilot's decoded program, so forks never decode: the
   decoded program is immutable and shared. *)

type snapshot = {
  snap_step : int; (* pilot [st.steps] = fault-free position at capture *)
  s_code : Interp.program;
  s_regs : int array;
  s_mem : Mem.t;
  s_block : int;
  s_index : int;
  s_clq : Clq.t option;
  s_col : Coloring.t option;
  s_verified_loc : (Reg.t, slot_loc) Hashtbl.t;
  s_open_region : dynamic_region option;
  s_pending : dynamic_region list;
  s_next_seq : int;
  s_fast_released : int;
  s_colored : int;
  s_quarantined : int;
}

let snapshot_step s = s.snap_step

(* The undo/ckpt lists are immutable and safely shared; the record's
   mutable cells must be fresh. *)
let copy_region (r : dynamic_region) = { r with end_step = r.end_step }

let capture ex =
  {
    snap_step = ex.st.Interp.steps;
    s_code = ex.code;
    s_regs = Array.copy ex.st.Interp.regs;
    s_mem = Mem.fork ex.st.Interp.mem;
    s_block = ex.st.Interp.block;
    s_index = ex.st.Interp.index;
    s_clq = Option.map Clq.copy ex.clq;
    s_col = Option.map Coloring.copy ex.col;
    s_verified_loc = Hashtbl.copy ex.verified_loc;
    s_open_region = Option.map copy_region ex.open_region;
    s_pending = List.map copy_region ex.pending;
    s_next_seq = ex.next_seq;
    s_fast_released = ex.fast_released;
    s_colored = ex.colored;
    s_quarantined = ex.quarantined;
  }

let of_snapshot ?(config = default_config) ?(tel = Telemetry.null)
    (compiled : Pass_pipeline.t) (s : snapshot) ~faults =
  {
    cfg = config;
    compiled;
    code = s.s_code;
    st =
      {
        Interp.regs = Array.copy s.s_regs;
        mem = Mem.fork s.s_mem;
        block = s.s_block;
        index = s.s_index;
        steps = s.snap_step;
        halted = false;
      };
    clq = Option.map Clq.copy s.s_clq;
    col = Option.map Coloring.copy s.s_col;
    verified_loc = Hashtbl.copy s.s_verified_loc;
    claim_bypass =
      claim_table config.honor_static_claims
        compiled.Pass_pipeline.claims.Turnpike_compiler.Claims.bypass_stores;
    claim_direct =
      claim_table config.honor_static_claims
        compiled.Pass_pipeline.claims.Turnpike_compiler.Claims.direct_ckpts;
    open_region = Option.map copy_region s.s_open_region;
    pending = List.map copy_region s.s_pending;
    next_seq = s.s_next_seq;
    tainted = Reg.Set.empty;
    remaining = faults;
    detection_step = max_int;
    (* [budget = fuel - steps] is a loop invariant (the budget is decremented
       exactly when [Interp.step] increments [steps]), so a fork inherits
       exactly the budget the from-scratch run would have here. *)
    budget = config.fuel - s.snap_step;
    delta = 0;
    recoveries = 0;
    detections = [];
    fast_released = s.s_fast_released;
    colored = s.s_colored;
    quarantined = s.s_quarantined;
    tel;
    f_strike_pos = -1;
    f_taint_use_done = false;
    f_reconverged = false;
  }

(* The pilot run a fork measures convergence against: its snapshots (in
   ascending [snap_step] order) and its final, drained state. *)
type oracle = { snaps : snapshot array; final_steps : int; final_state : Interp.state }

(* The registers live before the pc's instruction, from the reference
   liveness of the whole program. *)
let live_at ex =
  let func = ex.compiled.Pass_pipeline.prog.Prog.func in
  let live = Analysis_ref.Liveness.compute (Analysis_ref.Cfg.build func) func in
  let block = Func.block func (Interp.label ex.code ex.st) in
  (Analysis_ref.Liveness.live_before_each live block).(ex.st.Interp.index)

(* Once no fault, detection or taint is left no recovery can follow, and
   a register dead at the pc is written before it is read: the fork has
   rejoined the pilot when the pc, the live registers and the memory
   below checkpoint storage agree. *)
let converged ex (s : snapshot) =
  let snap_reg r = if r > 0 && r < Array.length s.s_regs then s.s_regs.(r) else 0 in
  ex.st.Interp.block = s.s_block
  && ex.st.Interp.index = s.s_index
  && (not ex.st.Interp.halted)
  && Mem.first_diff ~hi:Layout.ckpt_base ex.st.Interp.mem s.s_mem = None
  && Reg.Set.for_all (fun r -> Interp.get_reg ex.st r = snap_reg r) (live_at ex)

let drain_at_exit ex =
  (* Every region is error-free once the program has halted cleanly (no
     detection outlived the loop), so close the still-open region and
     verify everything pending: quarantined writes commit and buffered
     fallback checkpoints reach checkpoint storage. *)
  close_open_region ex ~now:ex.st.Interp.steps;
  let rec go () =
    match ex.pending with
    | [] -> ()
    | r :: rest ->
      ex.pending <- rest;
      verify_region ex r;
      go ()
  in
  go ()

let finish ex =
  {
    state = ex.st;
    recoveries = ex.recoveries;
    detections = List.rev ex.detections;
    fast_released_stores = ex.fast_released;
    colored_ckpts = ex.colored;
    quarantined_writes = ex.quarantined;
  }

let drive ?observer ?oracle ex =
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
  (* Convergence cursor: only pilot snapshots strictly ahead of the fork
     position are candidates. The cursor never moves backwards — after a
     recovery the position rewinds and simply catches up to it again. *)
  let oidx = ref 0 in
  (* The fork's whole state at its first strike, while no recovery, taint
     or detection has happened: the pilot's state at that position. *)
  let site = ref None in
  (match oracle with
  | Some o ->
    let pos0 = position ex in
    while !oidx < Array.length o.snaps && o.snaps.(!oidx).snap_step <= pos0 do
      incr oidx
    done
  | None -> ());
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
    (match observer with Some f -> f ex | None -> ());
    (* Reconvergence instant: the first loop top after a recovery at which
       no fault remains in flight, no detection is pending and no taint is
       live — from here the remaining run is fully determined, i.e. it
       deterministically rejoins the fault-free pilot. This is a pure
       state predicate (never a comparison against an oracle snapshot), so
       forked and from-scratch replays emit it at the same step; it is
       evaluated BEFORE the oracle early-exit below so a fork that adopts
       the pilot suffix in this very iteration still emits it. *)
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
    (* Convergence early exit: once the fault has struck, its detection has
       been handled and no taint is live, a fork whose architectural state
       (pc, registers, non-checkpoint memory) matches the pilot's snapshot
       at the same fault-free position has a fully determined future — the
       rest of the run is the pilot's suffix. Checkpoint storage is
       excluded from the comparison: slot contents and coloring history
       legitimately differ after a recovery, and the program only reads
       them during recovery itself, which can no longer occur. *)
    (match oracle with
    | Some o
      when ex.remaining = []
           && (not (detection_pending ()))
           && Reg.Set.is_empty ex.tainted ->
      let pos = position ex in
      let adopt () =
        let left = o.final_steps - pos in
        if ex.budget >= left then early := Some left
        else
          (* The determined suffix is longer than the remaining fuel:
             report exhaustion exactly where the full replay would. *)
          raise
            (Out_of_fuel
               { recoveries = ex.recoveries; steps = st.Interp.steps + ex.budget })
      in
      (* The strike site first, compared once; then the snapshots. *)
      (match !site with
      | Some s when s.snap_step = pos ->
        site := None;
        if converged ex s then adopt ()
      | Some _ | None -> ());
      if !early = None then begin
        let n = Array.length o.snaps in
        while !oidx < n && o.snaps.(!oidx).snap_step < pos do
          incr oidx
        done;
        if !oidx < n && o.snaps.(!oidx).snap_step = pos then begin
          if converged ex o.snaps.(!oidx) then adopt () else oidx := !oidx + 1
        end
      end
    | Some _ | None -> ());
    if !early = None then begin
      let now = st.Interp.steps in
      (* Detection strictly precedes any verification at the same timestamp:
         a region is verified only when NO error was detected during its
         window. A halted program jumps straight to the detection time. *)
      if detection_pending () && (now >= ex.detection_step || st.Interp.halted) then begin
        ex.detection_step <- max_int;
        recover ex ~kind:Sensor
      end
      else begin
        process_verifications ex ~now;
        (* Strikes land at their absolute step; several faults can be in
           flight, each scheduling its own detection — the earliest pending
           one triggers recovery. Steps are monotonically increasing, so
           faults scheduled inside a re-executed window simply fire once. *)
        (match ex.remaining with
        | (f : Fault.t) :: rest when now >= f.Fault.at_step ->
          ex.remaining <- rest;
          if
            Option.is_some oracle
            && ex.recoveries = 0
            && ex.delta = 0
            && (not (detection_pending ()))
            && Reg.Set.is_empty ex.tainted
          then site := Some (capture ex);
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
          (* Detected within the worst-case latency; deterministic sample. *)
          let d =
            1
            + (hash_mix f.Fault.at_step f.Fault.xor_mask
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
  done;
  match !early with
  | Some left ->
    let o = Option.get oracle in
    (* Adopt the pilot's final (drained) architectural state; [steps] keeps
       counting this fork's own re-executed work plus the skipped suffix,
       exactly as the full replay would have. The outcome gets its own
       registers and a fork of the pilot's memory: the pilot's state is
       shared by every fork of the campaign, on every domain. *)
    let final = o.final_state in
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
    (* Drain remaining verifications so the final memory is fully committed
       state plus quarantine-applied writes (all correct by now). *)
    drain_at_exit ex;
    finish ex

let run ?fault ?(faults = []) ?(config = default_config) ?tel
    (compiled : Pass_pipeline.t) =
  let faults =
    List.sort
      (fun (a : Fault.t) b -> compare a.Fault.at_step b.Fault.at_step)
      (match fault with Some f -> f :: faults | None -> faults)
  in
  drive (make_exec ~config ~faults ?tel compiled)

let capture_pilot ?(config = default_config) ~every (compiled : Pass_pipeline.t) =
  if every <= 0 then invalid_arg "Recovery.capture_pilot: every must be positive";
  let snaps = ref [] in
  (* A fault-free run never recovers, so [steps] strictly increases across
     loop iterations and each multiple of [every] is captured once. *)
  let observer ex =
    if ex.st.Interp.steps mod every = 0 then snaps := capture ex :: !snaps
  in
  let outcome = drive ~observer (make_exec ~config compiled) in
  (* Publish the final memory as a fork, which owns no page: every fork
     that adopts the pilot's suffix forks it in turn, from any domain, and
     forking a memory that owns no page does not write to it. *)
  let final = outcome.state in
  ( { outcome with state = { final with Interp.mem = Mem.fork final.Interp.mem } },
    Array.of_list (List.rev !snaps) )

let resume ?(config = default_config) ?tel ~snapshots ~pilot_outcome ~from ~faults
    compiled =
  let faults =
    List.sort (fun (a : Fault.t) b -> compare a.Fault.at_step b.Fault.at_step) faults
  in
  let oracle =
    {
      snaps = snapshots;
      final_steps = pilot_outcome.state.Interp.steps;
      final_state = pilot_outcome.state;
    }
  in
  drive ~oracle (of_snapshot ~config ?tel compiled from ~faults)
