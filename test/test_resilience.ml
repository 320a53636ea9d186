(* Tests for the resilience engine: fault model, injector, the
   region-transactional recovery executor and the SDC verifier — including
   the paper's negative result (Fig 16: checkpoint fast release without
   coloring is unsound). *)

open Turnpike_ir
module Recovery = Turnpike_resilience.Recovery
module Fault = Turnpike_resilience.Fault
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bench name = List.hd (Suite.find_by_name name)

let small_params =
  { Turnpike.Run.default_params with Turnpike.Run.scale = 1; fuel = 400_000 }

let compiled_of name =
  Turnpike.Run.compile_with small_params Turnpike.Scheme.turnpike (bench name)

(* ------------------------------------------------------------------ *)
(* Fault model *)

let test_fault_validation () =
  Alcotest.check_raises "zero reg immune"
    (Invalid_argument "Fault.create: the zero register is immune") (fun () ->
      ignore (Fault.create ~at_step:1 ~reg:Reg.zero ~xor_mask:1));
  Alcotest.check_raises "empty mask"
    (Invalid_argument "Fault.create: empty mask") (fun () ->
      ignore (Fault.create ~at_step:1 ~reg:3 ~xor_mask:0));
  Alcotest.check_raises "negative step"
    (Invalid_argument "Fault.create: negative step") (fun () ->
      ignore (Fault.create ~at_step:(-1) ~reg:3 ~xor_mask:1));
  let f = Fault.single_bit ~at_step:5 ~reg:3 ~bit:4 in
  check_int "single bit mask" 16 f.Fault.xor_mask

let test_injector_campaign_targets () =
  let c = compiled_of "libquan" in
  let faults = Injector.campaign ~seed:1 ~count:10 c.Turnpike.Run.trace in
  check_int "requested count" 10 (List.length faults);
  List.iter
    (fun (f : Fault.t) ->
      check "positive step" true (f.Fault.at_step > 0);
      check "never zero reg" false (Reg.is_zero f.Fault.reg))
    faults;
  (* Deterministic in seed. *)
  let again = Injector.campaign ~seed:1 ~count:10 c.Turnpike.Run.trace in
  check "deterministic" true (List.for_all2 Fault.equal faults again)

let test_injector_no_duplicate_faults () =
  (* Regression: the site and bit draws come from correlated [mix seed _]
     streams, so the raw stream repeats (step, reg, bit) triples; the
     campaign must deduplicate while preserving seeded order and still
     deliver the requested count when the trace is big enough. *)
  let c = compiled_of "libquan" in
  List.iter
    (fun seed ->
      let faults = Injector.campaign ~seed ~count:200 c.Turnpike.Run.trace in
      check_int
        (Printf.sprintf "seed %d full count" seed)
        200 (List.length faults);
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (f : Fault.t) ->
          let key = (f.Fault.at_step, f.Fault.reg, f.Fault.xor_mask) in
          check
            (Printf.sprintf "seed %d distinct (%d,%d,%d)" seed f.Fault.at_step
               f.Fault.reg f.Fault.xor_mask)
            false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ())
        faults)
    [ 1; 7; 42; 1234 ];
  (* A request beyond a trace's site/bit space tops up to exactly that
     space — 63 bits per distinct strike site (the write's step + 1,
     clamped into the trace, and its register) — never past it and never
     with repeats. Write steps are distinct, so strike sites are too,
     except that writes at the final two steps both strike the last one
     and collide when they hit the same register. *)
  let alu d = Trace.Alu { dst = Some d; srcs = [] } in
  let load d = Trace.Load { dst = d; srcs = []; addr = 64; kind = Instr.App_mem } in
  let store = Trace.Store { srcs = [ 1 ]; addr = 64; cls = Trace.Regular_app } in
  List.iter
    (fun (what, events, strike_sites) ->
      let trace = { Trace.events; complete = true } in
      check_int (what ^ ": strike sites") strike_sites (Injector.strike_sites trace);
      let faults = Injector.campaign ~seed:3 ~count:10_000 trace in
      let distinct =
        let t = Hashtbl.create 256 in
        List.iter
          (fun (f : Fault.t) ->
            Hashtbl.replace t (f.Fault.at_step, f.Fault.reg, f.Fault.xor_mask) ())
          faults;
        Hashtbl.length t
      in
      check_int (what ^ ": all distinct") (List.length faults) distinct;
      check_int (what ^ ": 63 x strike sites") (63 * strike_sites) (List.length faults))
    [
      ("one write", [| alu 1 |], 1);
      ("final two writes, same register", [| alu 5; alu 5 |], 1);
      ("final two writes, same register, 4 events", [| store; alu 1; alu 2; load 2 |], 2);
      ("final two writes, different registers", [| store; alu 1; alu 2; load 3 |], 3);
      ("same register, not at the end", [| alu 2; load 2; store; alu 1 |], 3);
      ("a write then a store", [| alu 1; alu 1; store |], 2);
    ]

(* ------------------------------------------------------------------ *)
(* Recovery executor *)

let test_no_fault_matches_golden () =
  List.iter
    (fun name ->
      let c = compiled_of name in
      let out = Recovery.run c.Turnpike.Run.compiled in
      check (name ^ " matches") true
        (Verifier.compare_states ~golden:c.Turnpike.Run.final
           ~actual:out.Recovery.state
        = Verifier.Match);
      check_int (name ^ " no recoveries") 0 out.Recovery.recoveries)
    [ "libquan"; "mcf"; "gcc"; "radix" ]

let test_no_fault_turnstile_config () =
  let c = compiled_of "libquan" in
  let out = Recovery.run ~config:Recovery.turnstile_config c.Turnpike.Run.compiled in
  check "turnstile config matches" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match);
  check_int "nothing colored without coloring" 0 out.Recovery.colored_ckpts;
  check_int "nothing fast released without CLQ" 0 out.Recovery.fast_released_stores;
  check "everything quarantined" true (out.Recovery.quarantined_writes > 0)

let test_single_fault_recovers () =
  let c = compiled_of "libquan" in
  let fault = Fault.single_bit ~at_step:500 ~reg:2 ~bit:3 in
  let out = Recovery.run ~faults:[ fault ] c.Turnpike.Run.compiled in
  check "recovered" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match);
  check "at least one recovery" true (out.Recovery.recoveries >= 1);
  check_int "one detection" 1 (List.length out.Recovery.detections)

let test_fault_campaigns_sdc_free () =
  (* The headline property: across benchmarks and fault sites, Turnpike
     never silently corrupts output. *)
  List.iter
    (fun name ->
      let c = compiled_of name in
      let faults = Injector.campaign ~seed:11 ~count:12 c.Turnpike.Run.trace in
      let rep =
        (Verifier.run_campaign ~golden:c.Turnpike.Run.final
           ~compiled:c.Turnpike.Run.compiled faults)
          .Verifier.report
      in
      check_int (name ^ " zero SDC") 0 rep.Verifier.sdc;
      check_int (name ^ " zero crashes") 0 rep.Verifier.crashed;
      check_int (name ^ " all recovered") rep.Verifier.total rep.Verifier.recovered)
    [ "libquan"; "mcf"; "bzip2"; "cactubssn"; "radix"; "hmmer"; "astar"; "gobmk" ]

let test_fault_campaign_turnstile_config () =
  (* The recovery protocol is also sound without any fast release. *)
  let c =
    Turnpike.Run.compile_with small_params Turnpike.Scheme.turnstile (bench "libquan")
  in
  let faults = Injector.campaign ~seed:4 ~count:10 c.Turnpike.Run.trace in
  let rep =
    (Verifier.run_campaign ~config:Recovery.turnstile_config
       ~golden:c.Turnpike.Run.final ~compiled:c.Turnpike.Run.compiled faults)
      .Verifier.report
  in
  check_int "turnstile zero SDC" 0 rep.Verifier.sdc;
  check_int "turnstile zero crashes" 0 rep.Verifier.crashed

let test_parity_detection_on_address_taint () =
  (* Corrupting a register that is then used as a load base triggers the
     parity/AGU path: detection at the addressing use, before memory is
     touched. Build the pattern explicitly so the strike deterministically
     lands on the pointer. *)
  let b = Builder.create "ptr" in
  Builder.label b "entry";
  let data = Builder.alloc_array b ~len:32 ~init:(fun k -> k * 3) in
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let p = Builder.fresh_reg b and ob = Builder.fresh_reg b in
  Builder.mov b ~dst:p (Imm data);
  Builder.mov b ~dst:ob (Imm out);
  let i = Builder.fresh_reg b and acc = Builder.fresh_reg b in
  Builder.mov b ~dst:i (Imm 0);
  Builder.mov b ~dst:acc (Imm 0);
  Builder.jump b "loop";
  Builder.label b "loop";
  let v = Builder.fresh_reg b in
  Builder.load b ~dst:v ~base:p ();
  Builder.add b ~dst:acc ~a:acc (Reg v);
  Builder.add b ~dst:p ~a:p (Imm Layout.word);
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm 30);
  Builder.branch b ~cond:c ~if_true:"loop" ~if_false:"fin";
  Builder.label b "fin";
  Builder.store b ~src:acc ~base:ob ();
  Builder.ret b;
  let prog = Builder.finish b in
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
  let compiled = Pass_pipeline.compile ~opts prog in
  let trace, golden = Interp.trace_run compiled.Pass_pipeline.prog in
  ignore trace;
  (* Find the physical register used as the loop's load base and strike it
     mid-loop: the very next load must trigger parity detection. *)
  let base_reg =
    let found = ref None in
    Turnpike_ir.Func.iter_blocks
      (fun blk ->
        Array.iter
          (fun ins ->
            match ins with
            | Instr.Load (_, base, _, Instr.App_mem) when !found = None ->
              found := Some base
            | _ -> ())
          blk.Block.body)
      compiled.Pass_pipeline.prog.Prog.func;
    Option.get !found
  in
  let fault = Fault.single_bit ~at_step:60 ~reg:base_reg ~bit:1 in
  let out = Recovery.run ~faults:[ fault ] compiled in
  check "parity detection fired" true (List.mem Recovery.Parity out.Recovery.detections);
  check "recovered" true
    (Verifier.compare_states ~golden ~actual:out.Recovery.state = Verifier.Match)

let test_unsafe_ckpt_release_reproduces_fig16 () =
  (* Releasing checkpoints without coloring overwrites the verified
     checkpoint storage; some fault in the campaign must then corrupt the
     output or fail recovery — the corner case of paper Fig 16 that
     motivates hardware coloring. *)
  let c = compiled_of "libquan" in
  let config = { Recovery.default_config with Recovery.coloring = false; unsafe_ckpt_release = true } in
  let faults = Injector.campaign ~seed:2 ~count:40 c.Turnpike.Run.trace in
  let rep =
    (Verifier.run_campaign ~config ~golden:c.Turnpike.Run.final
       ~compiled:c.Turnpike.Run.compiled faults)
      .Verifier.report
  in
  check "unsafe release corrupts at least one run" true
    (rep.Verifier.sdc + rep.Verifier.crashed > 0)

let test_detection_near_program_end () =
  (* A fault on the very last steps is still detected (the sensors keep
     watching through the final verification windows). *)
  let c = compiled_of "libquan" in
  let len = Array.length c.Turnpike.Run.trace.Trace.events in
  let fault = Fault.single_bit ~at_step:(len - 3) ~reg:1 ~bit:2 in
  let out = Recovery.run ~faults:[ fault ] c.Turnpike.Run.compiled in
  check_int "detected after halt" 1 (List.length out.Recovery.detections);
  check "still matches" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_fault_on_dead_register_harmless () =
  let c = compiled_of "libquan" in
  (* Register 30 is a spill scratch; at most steps it is dead. *)
  let fault = Fault.single_bit ~at_step:100 ~reg:30 ~bit:7 in
  let out = Recovery.run ~faults:[ fault ] c.Turnpike.Run.compiled in
  check "output intact" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_multi_fault_recovery () =
  (* Several well-separated strikes in one run: each is detected and
     recovered independently, and the output stays bit-exact. *)
  let c = compiled_of "libquan" in
  let len = Array.length c.Turnpike.Run.trace.Trace.events in
  let faults =
    List.filteri
      (fun i _ -> i < 3)
      [ Fault.single_bit ~at_step:(len / 5) ~reg:2 ~bit:4;
        Fault.single_bit ~at_step:(2 * len / 5) ~reg:3 ~bit:9;
        Fault.single_bit ~at_step:(4 * len / 5) ~reg:1 ~bit:1 ]
  in
  let out = Recovery.run ~faults c.Turnpike.Run.compiled in
  check "three detections" true (List.length out.Recovery.detections >= 3);
  check "multi-fault run matches golden" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_verifier_mismatch_reporting () =
  let c = compiled_of "libquan" in
  let golden = c.Turnpike.Run.final in
  let actual = Interp.init c.Turnpike.Run.compiled.Pass_pipeline.prog in
  (* Uninitialized run diverges from the golden final state. *)
  match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch _ -> ()
  | Verifier.Match -> Alcotest.fail "expected mismatch"

let test_verifier_reports_lowest_address_mismatch () =
  (* With several corrupted words, the report must name the lowest address
     — not whichever difference a walk of memory happens to meet first. *)
  let f = Func.create ~name:"cmp" ~entry:"a" [ Block.create "a" ] in
  let prog = Prog.create f in
  let golden = Interp.init prog and actual = Interp.init prog in
  let addr k = Layout.data_base + (k * Layout.word) in
  Interp.set_mem golden (addr 9) 1;
  Interp.set_mem actual (addr 9) 6;
  Interp.set_mem golden (addr 2) 5;
  (* addr 2 differs (5 vs 0) and addr 9 differs (1 vs 6). *)
  (match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch { addr = a; golden = g; actual = v } ->
    check_int "lowest address reported" (addr 2) a;
    check_int "golden value" 5 g;
    check_int "actual value" 0 v
  | Verifier.Match -> Alcotest.fail "expected mismatch");
  (* Symmetric: the extra word on the ACTUAL side at a lower address. *)
  Interp.set_mem actual (addr 1) 3;
  match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch { addr = a; golden = g; actual = v } ->
    check_int "actual-side extra word wins" (addr 1) a;
    check_int "golden side is 0" 0 g;
    check_int "actual side is 3" 3 v
  | Verifier.Match -> Alcotest.fail "expected mismatch"

(* ------------------------------------------------------------------ *)
(* Exit drain, fuel-exhaustion triage, snapshot forking, CI stopping *)

let test_exit_drain_commits_fallback_ckpts () =
  (* At exit every closed-but-unverified region must be drained: under the
     turnstile config every checkpoint is a quarantined fallback whose
     value only reaches the architected (color-0) slot at verification, so
     checkpoints executed within the last verify window of the program are
     observable in memory ONLY if the exit drain runs. The plain
     interpreter writes the color-0 slot at every Ckpt directly — with no
     faults the drained executor must agree on the whole memory,
     checkpoint storage included. *)
  List.iter
    (fun name ->
      let c =
        Turnpike.Run.compile_with small_params Turnpike.Scheme.turnstile
          (bench name)
      in
      let compiled = c.Turnpike.Run.compiled in
      let plain = Interp.run compiled.Pass_pipeline.prog in
      let out = Recovery.run ~config:Recovery.turnstile_config compiled in
      check (name ^ " drained executor memory = plain interpreter") true
        (Mem.first_diff plain.Interp.mem out.Recovery.state.Interp.mem = None))
    [ "libquan"; "radix" ]

let test_fuel_exhaustion_reason_has_triage_fields () =
  (* Satellite: a bare "out of fuel" cannot distinguish recovery livelock
     from a wedged program; the reason must carry the recovery count and
     the exhaustion step. *)
  let c = compiled_of "libquan" in
  let config = { Recovery.default_config with Recovery.fuel = 500 } in
  let fault = Fault.single_bit ~at_step:100 ~reg:3 ~bit:5 in
  match
    Verifier.run_one ~config ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled fault
  with
  | Verifier.Crashed { reason } ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    (* budget = fuel - steps is a loop invariant, so exhaustion is at
       exactly [fuel] steps here. *)
    check "reason names the exhaustion step" true
      (contains reason "out of fuel at step 500");
    check "reason names the recovery count" true (contains reason "recoveries")
  | Verifier.Recovered _ | Verifier.Sdc _ ->
    Alcotest.fail "expected fuel exhaustion"

let test_snapshot_fork_byte_identical () =
  (* Tentpole differential: for every fault of a seeded campaign, the
     forked-from-snapshot outcome must be byte-identical to the
     from-scratch [run_one] — and campaign reports must agree at any job
     count. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~every:256 compiled in
  check "pilot run is fault-free sound" true
    (Verifier.compare_states ~golden
       ~actual:(Snapshot.pilot_outcome plan).Recovery.state
    = Verifier.Match);
  List.iteri
    (fun i fault ->
      let scratch = Verifier.run_one ~golden ~compiled fault in
      let forked = Verifier.run_one ~plan ~golden ~compiled fault in
      check (Printf.sprintf "fault %d fork = scratch" i) true (scratch = forked))
    faults;
  let scratch_1 = Verifier.run_campaign ~jobs:1 ~golden ~compiled faults in
  let forked_1 = Verifier.run_campaign ~jobs:1 ~plan ~golden ~compiled faults in
  let forked_4 = Verifier.run_campaign ~jobs:4 ~plan ~golden ~compiled faults in
  check "campaign report fork = scratch (jobs 1)" true (scratch_1 = forked_1);
  check "campaign report identical at jobs 1 and 4" true (forked_1 = forked_4)

let test_snapshot_fork_every_kernel () =
  (* The same differential over the whole suite at scale 2: a fork must
     reproduce the from-scratch outcome of every fault on every kernel. *)
  let params = { Turnpike.Run.default_params with Turnpike.Run.scale = 2 } in
  List.iter
    (fun b ->
      let c = Turnpike.Run.compile_with params Turnpike.Scheme.turnpike b in
      let compiled = c.Turnpike.Run.compiled in
      let golden = c.Turnpike.Run.final in
      let faults = Injector.campaign ~seed:7 ~count:16 c.Turnpike.Run.trace in
      let plan = Snapshot.record compiled in
      List.iteri
        (fun i fault ->
          check
            (Printf.sprintf "%s fault %d fork = scratch" (Suite.qualified_name b) i)
            true
            (Verifier.run_one ~plan ~golden ~compiled fault
            = Verifier.run_one ~golden ~compiled fault))
        faults)
    (Suite.all ())

let test_early_exit_outcomes_own_memory () =
  (* A fork that reconverges adopts the pilot's final state. The plan
     and its pilot are shared by every fork of a campaign, on every
     domain, so each outcome must get its own registers and memory: a
     write to one outcome reaches neither another outcome nor the pilot. *)
  let c = compiled_of "mcf" in
  let plan = Snapshot.record c.Turnpike.Run.compiled in
  let outcomes =
    List.map (Snapshot.fork plan) (Injector.campaign ~seed:7 ~count:8 c.Turnpike.Run.trace)
  in
  let pilot = (Snapshot.pilot_outcome plan).Recovery.state in
  let addr = Layout.data_base and reg = 1 in
  let mem0 = Interp.get_mem pilot addr and reg0 = Interp.get_reg pilot reg in
  List.iteri
    (fun i (o : Recovery.outcome) ->
      Interp.set_mem o.Recovery.state addr (mem0 + 1 + i);
      Interp.set_reg o.Recovery.state reg (reg0 + 1 + i))
    outcomes;
  check_int "pilot memory untouched" mem0 (Interp.get_mem pilot addr);
  check_int "pilot registers untouched" reg0 (Interp.get_reg pilot reg);
  List.iteri
    (fun i (o : Recovery.outcome) ->
      check_int (Printf.sprintf "outcome %d memory is its own" i) (mem0 + 1 + i)
        (Interp.get_mem o.Recovery.state addr);
      check_int (Printf.sprintf "outcome %d registers are its own" i) (reg0 + 1 + i)
        (Interp.get_reg o.Recovery.state reg))
    outcomes

let test_verdict_against_pilot_final () =
  (* A fork is judged against the pilot's final memory only while that
     equals the golden on the data segment. Against a golden the pilot
     does not match, the verdict, mismatch report included, must still be
     the one the golden itself gives. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled and golden = c.Turnpike.Run.final in
  let plan = Snapshot.record compiled in
  let other = Interp.run compiled.Pass_pipeline.prog in
  let addr = Layout.data_base + (8 * Layout.word) in
  Interp.set_mem other addr (Interp.get_mem other addr + 1);
  check "pilot matches the golden" true (Snapshot.pilot_matches plan ~golden);
  check "pilot does not match the other golden" false
    (Snapshot.pilot_matches plan ~golden:other);
  List.iteri
    (fun i fault ->
      List.iter
        (fun (what, golden) ->
          check
            (Printf.sprintf "fault %d: fork = scratch against %s" i what)
            true
            (Verifier.run_one ~plan ~golden ~compiled fault
            = Verifier.run_one ~golden ~compiled fault))
        [ ("the golden", golden); ("another golden", other) ];
      match Verifier.run_one ~plan ~golden:other ~compiled fault with
      | Verifier.Sdc { mismatch = Verifier.Mismatch { addr = a; _ }; _ } ->
        check_int (Printf.sprintf "fault %d: mismatch at the changed word" i) addr a
      | Verifier.Sdc _ | Verifier.Recovered _ | Verifier.Crashed _ ->
        Alcotest.failf "fault %d: expected a mismatch against the other golden" i)
    (Injector.campaign ~seed:9 ~count:8 c.Turnpike.Run.trace)

(* Fork allocation budget: a forked fault allocates what its own replay
   needs (region records, undo entries, the pages it writes, one page
   table per fork), not a copy of the pilot's memory, and no event per
   load or store. Measured on the three chase kernels with the most data
   words, as minor words per forked fault, the verdict included: at most
   6.5k, so the budget leaves about 25% headroom. A deterministic
   stand-in for "forks got cheaper" that host noise cannot move. *)
let test_fork_alloc_budget () =
  let params = { Turnpike.Run.default_params with Turnpike.Run.scale = 2 } in
  let budget = 8_100. in
  List.iter
    (fun name ->
      let b = List.find (fun b -> Suite.qualified_name b = name) (Suite.all ()) in
      let c = Turnpike.Run.compile_with params Turnpike.Scheme.turnpike b in
      let compiled = c.Turnpike.Run.compiled and golden = c.Turnpike.Run.final in
      let faults = Injector.campaign ~seed:1 ~count:64 c.Turnpike.Run.trace in
      let plan = Snapshot.record compiled in
      let before = Gc.minor_words () in
      List.iter (fun f -> ignore (Verifier.run_one ~plan ~golden ~compiled f)) faults;
      let per_fault = (Gc.minor_words () -. before) /. float_of_int (List.length faults) in
      check
        (Printf.sprintf "%s: %.0f words per forked fault (budget %.0f)" name per_fault budget)
        true (per_fault <= budget))
    [ "mcf@2017"; "astar@2006"; "radiosity@splash3" ]

let test_snapshot_fork_forensic_parity () =
  (* The forensic lifecycle must not observe the replay strategy: a fault
     forked from a pilot snapshot emits exactly the same event bytes as
     the same fault replayed from step 0. (No forensic event fires before
     the strike, and the fork point always precedes it, so the streams
     are identical in full, not merely as suffixes.) *)
  let module Telemetry = Turnpike_telemetry in
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~every:256 compiled in
  let landed = ref 0 in
  List.iteri
    (fun i fault ->
      let s_sink = Telemetry.create ~task:i () in
      let f_sink = Telemetry.create ~task:i () in
      let scratch = Verifier.run_one ~tel:s_sink ~golden ~compiled fault in
      let forked = Verifier.run_one ~tel:f_sink ~plan ~golden ~compiled fault in
      check (Printf.sprintf "fault %d outcome fork = scratch" i) true
        (scratch = forked);
      Alcotest.(check string)
        (Printf.sprintf "fault %d forensic bytes fork = scratch" i)
        (Telemetry.Export.jsonl (Telemetry.events s_sink))
        (Telemetry.Export.jsonl (Telemetry.events f_sink));
      if
        List.exists
          (fun (e : Telemetry.event) -> e.Telemetry.name = "strike")
          (Telemetry.events s_sink)
      then incr landed)
    faults;
  check "campaign exercises landed strikes" true (!landed > 0)

let test_snapshot_fork_byte_identical_unsound_config () =
  (* The differential must also hold when outcomes are NOT all recoveries:
     the Fig-16 unsafe-release config yields SDCs and recovery failures,
     and forks must reproduce those byte-for-byte too. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let config =
    {
      Recovery.default_config with
      Recovery.coloring = false;
      unsafe_ckpt_release = true;
    }
  in
  let faults = Injector.campaign ~seed:2 ~count:40 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~config ~every:256 compiled in
  let interesting = ref 0 in
  List.iteri
    (fun i fault ->
      let scratch = Verifier.run_one ~config ~golden ~compiled fault in
      let forked = Verifier.run_one ~config ~plan ~golden ~compiled fault in
      (match scratch with
      | Verifier.Sdc _ | Verifier.Crashed _ -> incr interesting
      | Verifier.Recovered _ -> ());
      check
        (Printf.sprintf "unsound fault %d fork = scratch" i)
        true (scratch = forked))
    faults;
  check "campaign exercises non-recovered outcomes" true (!interesting > 0)

let test_ci_stopping_deterministic () =
  (* Same seed and CI target must give the identical stopping point and
     report at any job count; a zero-SDC campaign stops once the Wilson
     interval on 0/n is narrow enough. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:5 ~count:400 c.Turnpike.Run.trace in
  let plan = Snapshot.record compiled in
  let stopping =
    { Verifier.half_width = 0.05; confidence = 0.95; batch = 16; min_faults = 32 }
  in
  let a = Verifier.run_campaign ~jobs:1 ~plan ~stopping ~golden ~compiled faults in
  let b = Verifier.run_campaign ~jobs:4 ~plan ~stopping ~golden ~compiled faults in
  check "ci campaign identical at jobs 1 and 4" true (a = b);
  let ci = Option.get a.Verifier.ci in
  check "stopped before exhausting the supply" false ci.Verifier.exhausted;
  check "interval reached the target" true
    (ci.Verifier.achieved_half_width <= stopping.Verifier.half_width);
  check_int "consumed a whole number of batches"
    (ci.Verifier.batches * stopping.Verifier.batch)
    a.Verifier.report.Verifier.total;
  check_int "one outcome per consumed fault" a.Verifier.report.Verifier.total
    (List.length a.Verifier.outcomes);
  check "zero SDC rate" true (ci.Verifier.sdc_rate = 0.0);
  check "interval covers the rate" true
    (ci.Verifier.ci_low <= ci.Verifier.sdc_rate
    && ci.Verifier.sdc_rate <= ci.Verifier.ci_high);
  (* Wilson sanity at zero positives: the lower bound is 0 and the upper
     bound is strictly positive. *)
  check "lower bound 0" true (ci.Verifier.ci_low = 0.0);
  check "upper bound positive" true (ci.Verifier.ci_high > 0.0)

let test_ci_stopping_exhausted_supply () =
  (* A rule the supply cannot satisfy (min_faults above the fault count)
     consumes every fault: the same report and outcomes as no rule on the
     same list, with the interval marked exhausted. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:5 ~count:40 c.Turnpike.Run.trace in
  let plan = Snapshot.record compiled in
  let stopping =
    { Verifier.half_width = 0.5; confidence = 0.95; batch = 16; min_faults = 41 }
  in
  let fixed = Verifier.run_campaign ~jobs:2 ~plan ~golden ~compiled faults in
  let ci = Verifier.run_campaign ~jobs:2 ~plan ~stopping ~golden ~compiled faults in
  check "no rule, no interval" true (fixed.Verifier.ci = None);
  check "same report as no rule" true (ci.Verifier.report = fixed.Verifier.report);
  check "same outcomes as no rule" true
    (ci.Verifier.outcomes = fixed.Verifier.outcomes);
  check_int "every fault consumed" 40 ci.Verifier.report.Verifier.total;
  match ci.Verifier.ci with
  | None -> Alcotest.fail "a stopping rule must report its interval"
  | Some i ->
    check "supply exhausted" true i.Verifier.exhausted;
    check_int "three batches of at most 16" 3 i.Verifier.batches

(* ------------------------------------------------------------------ *)
(* QCheck: randomized single faults always recover. *)

let prop_random_faults_recover =
  QCheck.Test.make ~name:"random single-bit faults recover (libquan)" ~count:25
    QCheck.(pair (int_range 10 4000) (int_range 0 40))
    (fun (step, bit) ->
      let c = compiled_of "libquan" in
      let reg = 1 + (step mod 6) in
      let fault = Fault.single_bit ~at_step:step ~reg ~bit in
      let out = Recovery.run ~faults:[ fault ] c.Turnpike.Run.compiled in
      Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
      = Verifier.Match)

let prop_random_faults_recover_histogram =
  QCheck.Test.make ~name:"random single-bit faults recover (radix)" ~count:15
    QCheck.(pair (int_range 10 3000) (int_range 0 40))
    (fun (step, bit) ->
      let c = compiled_of "radix" in
      let reg = 1 + (step mod 8) in
      let fault = Fault.single_bit ~at_step:step ~reg ~bit in
      let out = Recovery.run ~faults:[ fault ] c.Turnpike.Run.compiled in
      Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
      = Verifier.Match)

let prop_executor_matches_interp_no_fault =
  (* With no faults injected, the region-transactional executor (with all
     of quarantine, CLQ fast release and coloring active) must be
     observationally identical to the plain interpreter over random
     kernels. *)
  QCheck.Test.make ~name:"no-fault executor = interpreter (random kernels)" ~count:15
    QCheck.(triple (int_range 1 40) (int_range 8 50) (int_range 1 3))
    (fun (seed, iters, ways) ->
      let prog = Turnpike_workloads.Templates.stream_store ~seed ~iters ~ways () in
      let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
      let compiled = Turnpike_compiler.Pass_pipeline.compile ~opts prog in
      let golden = Interp.run ~fuel:2_000_000 compiled.Pass_pipeline.prog in
      let out = Recovery.run compiled in
      Verifier.compare_states ~golden ~actual:out.Recovery.state = Verifier.Match)

(* ------------------------------------------------------------------ *)
(* Campaign golden: fork = scratch compares two paths of one build, so
   this pins campaign behaviour across commits. For every suite kernel at
   scale 1, under each config of [campaign_configs] (the Turnpike and
   Turnstile ones on their own binaries; unsafe release, static claims
   and a 10-step verification delay on the turnpike binary), one line
   holds the MD5 of the
   outcomes of 24 seeded faults forked from a snapshot plan, the pilot's
   final step count and the plan's snapshot count; one more line pins the
   forensic event stream of libquan's first fault. A change to the
   interpreter or the recovery executor that is meant to be invisible
   must leave test/golden/campaigns.txt as it is. *)

let md5 s = Digest.to_hex (Digest.string s)

let campaign_configs =
  [
    ("default", Turnpike.Scheme.turnpike, Recovery.default_config);
    ("turnstile", Turnpike.Scheme.turnstile, Recovery.turnstile_config);
    (* Fig 16: checkpoints released without coloring (SDCs and recovery
       failures, not only recoveries). *)
    ( "unsafe",
      Turnpike.Scheme.turnpike,
      { Recovery.default_config with Recovery.coloring = false; unsafe_ckpt_release = true } );
    (* The pipeline's static release claims in place of the CLQ. *)
    ( "claims",
      Turnpike.Scheme.turnpike,
      { Recovery.default_config with Recovery.honor_static_claims = true; clq = None } );
    (* The WCDL the explorer passes as a step count. *)
    ("delay10", Turnpike.Scheme.turnpike, { Recovery.default_config with Recovery.verify_delay = 10 });
  ]

let golden_campaign scheme config b =
  let c = Turnpike.Run.compile_with small_params scheme b in
  let faults = Injector.campaign ~seed:7 ~count:24 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~config c.Turnpike.Run.compiled in
  (c, faults, plan)

let campaign_line (tag, scheme, config) b =
  let c, faults, plan = golden_campaign scheme config b in
  let outcomes =
    List.map
      (Verifier.run_one ~config ~plan ~golden:c.Turnpike.Run.final
         ~compiled:c.Turnpike.Run.compiled)
      faults
  in
  ( Suite.qualified_name b ^ "/" ^ tag,
    Printf.sprintf "%s %d %d"
      (md5 (String.concat "\n" (List.map Verifier.outcome_to_json outcomes)))
      (Snapshot.pilot_outcome plan).Recovery.state.Interp.steps
      (Snapshot.snapshot_count plan) )

let forensic_line () =
  let module Telemetry = Turnpike_telemetry in
  let b = bench "libquan" in
  let c, faults, plan =
    golden_campaign Turnpike.Scheme.turnpike Recovery.default_config b
  in
  let sink = Telemetry.create () in
  ignore
    (Verifier.run_one ~tel:sink ~plan ~golden:c.Turnpike.Run.final
       ~compiled:c.Turnpike.Run.compiled (List.hd faults));
  ( "forensics:" ^ Suite.qualified_name b,
    md5 (Telemetry.Export.jsonl (Telemetry.events sink)) )

let campaign_golden () =
  List.concat_map
    (fun b -> List.map (fun cfg -> campaign_line cfg b) campaign_configs)
    (Suite.all ())
  @ [ forensic_line () ]

let test_golden_campaigns () =
  Golden_file.check_keyed ~file:"campaigns.txt" ~what:"campaign outcomes"
    (campaign_golden ())

(* ------------------------------------------------------------------ *)
(* Reference executor differential: [Recovery] only skips work that is
   not due, so on every kernel at scale 1, under four configs and four
   verification delays, it must produce exactly what [Recovery_ref] (the
   per-step executor it replaced) produces: every memory word, checkpoint
   storage included, the registers, pc, step count, recoveries,
   detections and release counters, or the same exception; and the same
   forensic bytes. Runs: fault-free, 8 single faults and one 2-fault run,
   each from scratch and forked from a pilot snapshot. *)

module Telemetry = Turnpike_telemetry

type observed =
  | Done of {
      state : Interp.state;
      recoveries : int;
      detections : string list;
      released : int * int * int; (* fast-released, colored, quarantined *)
    }
  | Raised of string

(* Registers past either file's end read 0; every memory word counts,
   checkpoint storage included. *)
let same_state (a : Interp.state) (b : Interp.state) =
  let get r i = if i < Array.length r then r.(i) else 0 in
  let n = max (Array.length a.Interp.regs) (Array.length b.Interp.regs) in
  List.for_all (fun i -> get a.Interp.regs i = get b.Interp.regs i) (List.init n Fun.id)
  && (a.Interp.block, a.Interp.index, a.Interp.halted, a.Interp.steps)
     = (b.Interp.block, b.Interp.index, b.Interp.halted, b.Interp.steps)
  && Mem.first_diff a.Interp.mem b.Interp.mem = None

let same_observed a b =
  match (a, b) with
  | Done a, Done b ->
    same_state a.state b.state
    && (a.recoveries, a.detections, a.released) = (b.recoveries, b.detections, b.released)
  | Raised a, Raised b -> a = b
  | Done _, Raised _ | Raised _, Done _ -> false

let observe_new run =
  match run () with
  | (o : Recovery.outcome) ->
    Done
      {
        state = o.Recovery.state;
        recoveries = o.Recovery.recoveries;
        detections =
          List.map (function Recovery.Sensor -> "sensor" | Recovery.Parity -> "parity")
            o.Recovery.detections;
        released =
          (o.Recovery.fast_released_stores, o.Recovery.colored_ckpts, o.Recovery.quarantined_writes);
      }
  | exception Recovery.Recovery_failed m -> Raised ("recovery failed: " ^ m)
  | exception Recovery.Out_of_fuel { recoveries; steps } ->
    Raised (Printf.sprintf "out of fuel: %d %d" recoveries steps)

let observe_ref run =
  match run () with
  | (o : Recovery_ref.outcome) ->
    Done
      {
        state = o.Recovery_ref.state;
        recoveries = o.Recovery_ref.recoveries;
        detections =
          List.map
            (function Recovery_ref.Sensor -> "sensor" | Recovery_ref.Parity -> "parity")
            o.Recovery_ref.detections;
        released =
          ( o.Recovery_ref.fast_released_stores,
            o.Recovery_ref.colored_ckpts,
            o.Recovery_ref.quarantined_writes );
      }
  | exception Recovery_ref.Recovery_failed m -> Raised ("recovery failed: " ^ m)
  | exception Recovery_ref.Out_of_fuel { recoveries; steps } ->
    Raised (Printf.sprintf "out of fuel: %d %d" recoveries steps)

(* One run's outcome and forensic bytes. *)
let with_sink run =
  let sink = Telemetry.create () in
  let o = run sink in
  (o, Telemetry.Export.jsonl (Telemetry.events sink))

let differential_configs =
  [
    ("default", Turnpike.Scheme.turnpike, Recovery.default_config, Recovery_ref.default_config);
    ("turnstile", Turnpike.Scheme.turnstile, Recovery.turnstile_config, Recovery_ref.turnstile_config);
    ( "unsafe",
      Turnpike.Scheme.turnpike,
      { Recovery.default_config with Recovery.coloring = false; unsafe_ckpt_release = true },
      { Recovery_ref.default_config with Recovery_ref.coloring = false; unsafe_ckpt_release = true } );
    ( "claims",
      Turnpike.Scheme.turnpike,
      { Recovery.default_config with Recovery.honor_static_claims = true; clq = None },
      { Recovery_ref.default_config with Recovery_ref.honor_static_claims = true; clq = None } );
  ]

(* The runs of one kernel whose outcome or forensic bytes differ from the
   reference's. *)
let differential_kernel b =
  List.concat_map
    (fun (tag, scheme, config, ref_config) ->
      let c = Turnpike.Run.compile_with small_params scheme b in
      let compiled = c.Turnpike.Run.compiled and trace = c.Turnpike.Run.trace in
      let singles = List.map (fun f -> [ f ]) (Injector.campaign ~seed:3 ~count:8 trace) in
      let runs = ([] :: singles) @ [ Injector.campaign ~seed:5 ~count:2 trace ] in
      List.concat_map
        (fun verify_delay ->
          let config = { config with Recovery.verify_delay }
          and ref_config = { ref_config with Recovery_ref.verify_delay } in
          let plan = Snapshot.record ~config ~every:256 compiled in
          let ref_pilot, ref_snaps = Recovery_ref.capture_pilot ~config:ref_config ~every:256 compiled in
          let last = (Snapshot.pilot_outcome plan).Recovery.state.Interp.steps in
          List.concat
          @@ List.mapi
            (fun i faults ->
              (* A fault-free run forks from the middle of the pilot. *)
              let first =
                List.fold_left (fun m (f : Fault.t) -> min m f.Fault.at_step) (last / 2) faults
              in
              let ref_from =
                Array.fold_left
                  (fun acc s -> if Recovery_ref.snapshot_step s <= first then s else acc)
                  ref_snaps.(0) ref_snaps
              in
              let pairs =
                [
                  ( "scratch",
                    with_sink (fun tel ->
                        observe_new (fun () -> Recovery.run ~faults ~config ~tel compiled)),
                    with_sink (fun tel ->
                        observe_ref (fun () ->
                            Recovery_ref.run ~faults ~config:ref_config ~tel compiled)) );
                  ( "forked",
                    with_sink (fun tel ->
                        observe_new (fun () ->
                            Recovery.resume ~tel plan.Snapshot.pilot
                              ~from:(Snapshot.nearest plan ~step:first) ~faults)),
                    with_sink (fun tel ->
                        observe_ref (fun () ->
                            Recovery_ref.resume ~config:ref_config ~tel ~snapshots:ref_snaps
                              ~pilot_outcome:ref_pilot ~from:ref_from ~faults compiled)) );
                ]
              in
              List.filter_map
                (fun (path, (got, got_bytes), (want, want_bytes)) ->
                  let what =
                    Printf.sprintf "%s/%s delay %d run %d %s" (Suite.qualified_name b) tag
                      verify_delay i path
                  in
                  if not (same_observed got want) then Some (what ^ ": outcome")
                  else if got_bytes <> want_bytes then Some (what ^ ": forensic bytes")
                  else None)
                pairs)
            runs)
        [ 0; 1; 10; 40 ])
    differential_configs

let test_reference_differential () =
  match
    List.concat (Turnpike_parallel.map_list ~jobs:2 differential_kernel (Suite.all ()))
  with
  | [] -> ()
  | first :: _ as bad ->
    Alcotest.failf "%d runs differ from the reference executor, first %s" (List.length bad)
      first

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_faults_recover; prop_random_faults_recover_histogram;
      prop_executor_matches_interp_no_fault ]

let tests =
  [
    ("fault validation", `Quick, test_fault_validation);
    ("injector campaign targets", `Quick, test_injector_campaign_targets);
    ("injector emits no duplicate faults", `Quick, test_injector_no_duplicate_faults);
    ("exit drain commits fallback ckpts", `Quick, test_exit_drain_commits_fallback_ckpts);
    ( "fuel exhaustion reason has triage fields",
      `Quick,
      test_fuel_exhaustion_reason_has_triage_fields );
    ("snapshot fork byte-identical", `Slow, test_snapshot_fork_byte_identical);
    ("snapshot fork = scratch on every kernel", `Slow, test_snapshot_fork_every_kernel);
    ("snapshot fork forensic parity", `Slow, test_snapshot_fork_forensic_parity);
    ("early-exit outcomes own their memory", `Quick, test_early_exit_outcomes_own_memory);
    ("fork allocation budget", `Quick, test_fork_alloc_budget);
    ("verdict against the pilot's final memory", `Quick, test_verdict_against_pilot_final);
    ( "snapshot fork byte-identical (unsound config)",
      `Slow,
      test_snapshot_fork_byte_identical_unsound_config );
    ("CI stopping deterministic", `Slow, test_ci_stopping_deterministic);
    ("CI stopping on an exhausted supply", `Quick, test_ci_stopping_exhausted_supply);
    ("golden campaigns", `Slow, test_golden_campaigns);
    ("executor = reference executor", `Slow, test_reference_differential);
    ("no-fault matches golden", `Quick, test_no_fault_matches_golden);
    ("no-fault turnstile config", `Quick, test_no_fault_turnstile_config);
    ("single fault recovers", `Quick, test_single_fault_recovers);
    ("fault campaigns SDC-free", `Slow, test_fault_campaigns_sdc_free);
    ("turnstile-config campaign SDC-free", `Quick, test_fault_campaign_turnstile_config);
    ("parity detection on address taint", `Quick, test_parity_detection_on_address_taint);
    ("unsafe release reproduces Fig 16", `Quick, test_unsafe_ckpt_release_reproduces_fig16);
    ("detection near program end", `Quick, test_detection_near_program_end);
    ("fault on dead register harmless", `Quick, test_fault_on_dead_register_harmless);
    ("multi-fault recovery", `Quick, test_multi_fault_recovery);
    ("verifier mismatch reporting", `Quick, test_verifier_mismatch_reporting);
    ( "verifier reports lowest-address mismatch",
      `Quick,
      test_verifier_reports_lowest_address_mismatch );
  ]
  @ qcheck
