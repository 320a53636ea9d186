(* One driver per table/figure of the paper's evaluation (§6). Each driver
   returns structured rows; the bench harness renders them. Benchmarks and
   schemes come from the shared suite, so a single compile+trace per
   (benchmark, compile-config) is reused across machines and WCDLs.

   Every driver submits its full (benchmark × config) grid to the
   Parallel work pool; Run's domain-safe cache deduplicates compiles
   across workers, and the pool's index-ordered results keep rows
   byte-identical at any --jobs count. *)

module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
module Static_stats = Turnpike_compiler.Static_stats
module Sensor = Turnpike_arch.Sensor
module Cost_model = Turnpike_arch.Cost_model
module Clq = Turnpike_arch.Clq

let benchmarks () = Suite.all ()

let spec_benchmarks () =
  List.filter
    (fun b -> b.Suite.suite = Suite.Cpu2006 || b.Suite.suite = Suite.Cpu2017)
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Fig 4: checkpoint ratio (dynamic checkpoints / dynamic instructions)
   when the partitioner targets a 40-entry versus a 4-entry SB. *)

type fig4_row = { bench : string; ratio_sb40 : float; ratio_sb4 : float }

let fig4 ?(params = Run.default_params) () =
  Turnpike_parallel.grid ~items:(spec_benchmarks ()) ~configs:[ 40; 4 ]
    (fun b sb_size ->
      let c = Run.compile_with { params with sb_size } Scheme.turnstile b in
      let t = c.Run.trace in
      let n = Turnpike_ir.Trace.num_instructions t in
      if n = 0 then 0.0
      else float_of_int (Turnpike_ir.Trace.num_ckpts t) /. float_of_int n)
  |> List.map (fun (b, ratios) ->
         {
           bench = Suite.qualified_name b;
           ratio_sb40 = List.assoc 40 ratios;
           ratio_sb4 = List.assoc 4 ratios;
         })

(* ------------------------------------------------------------------ *)
(* Figs 14/15: ideal (infinite CAM) vs compact (2-entry range) CLQ, with
   only WAR-free checking + hardware coloring enabled (no compiler
   optimizations), 10-cycle WCDL. *)

type clq_design_row = {
  bench : string;
  overhead_ideal : float;
  overhead_compact : float;
  war_free_ideal : float; (* ratio of WAR-free released stores, Fig 15 *)
  war_free_compact : float;
}

let fig14_15 ?(params = Run.default_params) () =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:[ Clq.Ideal; Clq.Compact 2 ]
    (fun b clq ->
      let scheme = Scheme.with_clq Scheme.fast_release (Some clq) in
      Run.normalized_with { params with wcdl = 10 } scheme b)
  |> List.map (fun (b, results) ->
         match results with
         | [ (_, (ov_i, r_i)); (_, (ov_c, r_c)) ] ->
           {
             bench = Suite.qualified_name b;
             overhead_ideal = ov_i;
             overhead_compact = ov_c;
             war_free_ideal = Sim_stats.war_free_ratio r_i.Run.stats;
             war_free_compact = Sim_stats.war_free_ratio r_c.Run.stats;
           }
         | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Fig 18: sensor count vs detection latency for three clock rates. *)

type fig18_row = { sensors : int; dl_2_0ghz : int; dl_2_5ghz : int; dl_3_0ghz : int }

let fig18 () =
  let counts = [ 10; 20; 30; 50; 75; 100; 150; 200; 300 ] in
  List.map
    (fun n ->
      let dl f = Sensor.wcdl (Sensor.create ~num_sensors:n ~clock_ghz:f ()) in
      { sensors = n; dl_2_0ghz = dl 2.0; dl_2_5ghz = dl 2.5; dl_3_0ghz = dl 3.0 })
    counts

(* ------------------------------------------------------------------ *)
(* Figs 19/20: overhead across WCDL 10..50 for Turnpike / Turnstile. *)

type wcdl_sweep_row = { bench : string; overheads : (int * float) list }

let wcdls = [ 10; 20; 30; 40; 50 ]

let wcdl_sweep ?(params = Run.default_params) scheme =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:wcdls
    (fun b wcdl -> fst (Run.normalized_with { params with wcdl } scheme b))
  |> List.map (fun (b, overheads) ->
         { bench = Suite.qualified_name b; overheads })

let fig19 ?params () = wcdl_sweep ?params Scheme.turnpike
let fig20 ?params () = wcdl_sweep ?params Scheme.turnstile

(* ------------------------------------------------------------------ *)
(* Fig 21: the ablation ladder at 10-cycle WCDL. *)

type fig21_row = { bench : string; by_scheme : (string * float) list }

let ladder_at ~params ~wcdl () =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:Scheme.ladder
    (fun b s -> fst (Run.normalized_with { params with wcdl } s b))
  |> List.map (fun (b, by) ->
         {
           bench = Suite.qualified_name b;
           by_scheme = List.map (fun (s, ov) -> (s.Scheme.name, ov)) by;
         })

let fig21 ?(params = Run.default_params) () = ladder_at ~params ~wcdl:10 ()

(* Extension: the ablation ladder at 50-cycle WCDL. The paper only shows
   the ladder at WCDL=10, where hardware fast release dominates; at longer
   detection latencies the compiler rungs (fewer stores to verify) carry
   more of the win, which this sweep exposes. *)
let fig21_wcdl ?(params = Run.default_params) ~wcdl () = ladder_at ~params ~wcdl ()

(* ------------------------------------------------------------------ *)
(* Fig 22: SB-size sensitivity at 10-cycle WCDL. Note the overhead is
   always normalized against the baseline machine with the SAME SB size,
   as in the paper. *)

type fig22_row = { bench : string; by_config : (string * float) list }

let fig22_configs =
  List.map (fun sb -> (Printf.sprintf "turnpike-sb%d" sb, Scheme.turnpike, sb)) [ 4; 8; 10 ]
  @ List.map
      (fun sb -> (Printf.sprintf "turnstile-sb%d" sb, Scheme.turnstile, sb))
      [ 8; 10; 20; 30; 40 ]

let fig22 ?(params = Run.default_params) () =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:fig22_configs
    (fun b (_, scheme, sb) ->
      fst
        (Run.normalized_with
           { params with wcdl = 10; sb_size = sb; baseline_sb = sb }
           scheme b))
  |> List.map (fun (b, by) ->
         {
           bench = Suite.qualified_name b;
           by_config = List.map (fun ((name, _, _), ov) -> (name, ov)) by;
         })

(* ------------------------------------------------------------------ *)
(* Fig 23: breakdown of all stores (of the unoptimized Turnstile binary)
   into the paper's categories. Eliminated categories are measured as
   dynamic-count differences down the optimization ladder; Colored /
   WAR-free / Others are measured on the full-Turnpike run. *)

type fig23_row = {
  bench : string;
  pruned : float;
  licm_eliminated : float;
  colored : float;
  war_free : float;
  ra_eliminated : float;
  ivm_eliminated : float;
  others : float;
}

let fig23 ?(params = Run.default_params) () =
  (* One task per benchmark: the ladder walk inside is a data-dependent
     sequence, but distinct benchmarks are independent. *)
  Turnpike_parallel.map_list
    (fun b ->
      let trace_of scheme =
        (Run.compile_with { params with sb_size = 4 } scheme b).Run.trace
      in
      let sbw t = float_of_int (Turnpike_ir.Trace.num_sb_writes t) in
      let ck t = float_of_int (Turnpike_ir.Trace.num_ckpts t) in
      let t_turnstile = trace_of Scheme.turnstile in
      let total = sbw t_turnstile in
      if total = 0.0 then
        {
          bench = Suite.qualified_name b;
          pruned = 0.0;
          licm_eliminated = 0.0;
          colored = 0.0;
          war_free = 0.0;
          ra_eliminated = 0.0;
          ivm_eliminated = 0.0;
          others = 0.0;
        }
      else begin
        (* Walk the ladder accumulating dynamic eliminations. *)
        let t_pruning = trace_of Scheme.fast_release_pruning in
        let t_licm = trace_of Scheme.plus_licm in
        let t_sched = trace_of Scheme.plus_sched in
        let t_ra = trace_of Scheme.plus_ra in
        let t_turnpike = trace_of Scheme.turnpike in
        let pruned = max 0.0 (ck t_turnstile -. ck t_pruning) in
        let licm_elim = max 0.0 (ck t_pruning -. ck t_licm) in
        let ra_elim = max 0.0 (sbw t_sched -. sbw t_ra) in
        let ivm_elim = max 0.0 (sbw t_ra -. sbw t_turnpike) in
        (* Final Turnpike machine run for the dynamic release classes. *)
        let r = Run.run_with { params with wcdl = 10 } Scheme.turnpike b in
        let colored = float_of_int r.Run.stats.Sim_stats.colored_released in
        let war_free = float_of_int r.Run.stats.Sim_stats.war_free_released in
        let others = float_of_int r.Run.stats.Sim_stats.quarantined in
        let pct x = 100.0 *. x /. total in
        (* The paper's figure is a stacked-to-100% breakdown of the
           original store population. The release classes are measured on
           the Turnpike binary, whose store count can drift slightly from
           (original - eliminated) — e.g. store-aware allocation reshuffles
           spill code — so they are normalized onto the remaining share. *)
        let eliminated = pct pruned +. pct licm_elim +. pct ra_elim +. pct ivm_elim in
        let remaining = max 0.0 (100.0 -. eliminated) in
        let class_sum = colored +. war_free +. others in
        let scale_class x =
          if class_sum <= 0.0 then 0.0 else remaining *. x /. class_sum
        in
        {
          bench = Suite.qualified_name b;
          pruned = pct pruned;
          licm_eliminated = pct licm_elim;
          colored = scale_class colored;
          war_free = scale_class war_free;
          ra_eliminated = pct ra_elim;
          ivm_eliminated = pct ivm_elim;
          others = scale_class others;
        }
      end)
    (benchmarks ())

(* ------------------------------------------------------------------ *)
(* Figs 24/25: dynamic CLQ occupancy, and 2- vs 4-entry CLQ overhead. *)

type fig24_row = { bench : string; mean_entries : float; max_entries : int }

let fig24 ?(params = Run.default_params) () =
  Turnpike_parallel.map_list
    (fun b ->
      let r = Run.run_with { params with wcdl = 10 } Scheme.turnpike b in
      {
        bench = Suite.qualified_name b;
        mean_entries = r.Run.stats.Sim_stats.clq_mean_populated;
        max_entries = r.Run.stats.Sim_stats.clq_max_populated;
      })
    (benchmarks ())

type fig25_row = { bench : string; overhead_clq2 : float; overhead_clq4 : float }

let fig25 ?(params = Run.default_params) () =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:[ 2; 4 ]
    (fun b n ->
      let scheme = Scheme.with_clq Scheme.turnpike (Some (Clq.Compact n)) in
      fst (Run.normalized_with { params with wcdl = 10 } scheme b))
  |> List.map (fun (b, by) ->
         {
           bench = Suite.qualified_name b;
           overhead_clq2 = List.assoc 2 by;
           overhead_clq4 = List.assoc 4 by;
         })

(* ------------------------------------------------------------------ *)
(* Fig 26: dynamic region size and static code-size increase. *)

type fig26_row = { bench : string; region_size : float; code_increase_pct : float }

let fig26 ?(params = Run.default_params) () =
  Turnpike_parallel.map_list
    (fun b ->
      let c = Run.compile_with { params with sb_size = 4 } Scheme.turnpike b in
      let t = c.Run.trace in
      let regions = max 1 (Turnpike_ir.Trace.num_boundaries t) in
      {
        bench = Suite.qualified_name b;
        region_size =
          float_of_int (Turnpike_ir.Trace.num_instructions t) /. float_of_int regions;
        code_increase_pct =
          Static_stats.code_size_increase c.Run.compiled.Run.Pass_pipeline.stats;
      })
    (benchmarks ())

(* ------------------------------------------------------------------ *)
(* Table 1: hardware cost. *)

let table1 () = Cost_model.table1 ()

(* ------------------------------------------------------------------ *)
(* The paper's motivating comparison (§1, §3): Turnstile is lightweight on
   an out-of-order core (the paper quotes ~8% on SPEC/MediaBench/SPLASH2)
   because its 40-entry store buffer absorbs the quarantine and dynamic
   scheduling hides checkpoint hazards, yet the same scheme costs 29-84%
   in order. Run the same Turnstile binary on both core models. *)

module Ooo = Turnpike_arch.Ooo_timing

type motivation_row = {
  bench : string;
  ooo_overhead : float; (* Turnstile on the OoO core *)
  inorder_overhead : float; (* Turnstile on the in-order core *)
}

let motivation ?(params = Run.default_params) ?(wcdl = 10) () =
  let params = { params with wcdl; sb_size = 4 } in
  Turnpike_parallel.map_list
    (fun b ->
      let c = Run.compile_with params Scheme.turnstile b in
      let base = Run.compile_with params Scheme.baseline b in
      let ooo cfg trace = (Ooo.simulate cfg trace).Sim_stats.cycles in
      let ooo_overhead =
        float_of_int (ooo (Ooo.turnstile_config ~wcdl ()) c.Run.trace)
        /. float_of_int (max 1 (ooo Ooo.default_config base.Run.trace))
      in
      let inorder_overhead, _ = Run.normalized_with params Scheme.turnstile b in
      { bench = Suite.qualified_name b; ooo_overhead; inorder_overhead })
    (benchmarks ())

(* ------------------------------------------------------------------ *)
(* Extension ablation: loop unrolling as a region-size knob. SPEC loop
   bodies are large (often unrolled by -O3), so loop-carried registers are
   checkpointed once per *long* iteration; this repo's kernels are small,
   which amplifies checkpoint ratios and color-pool pressure. Sweeping the
   unroll factor on both schemes quantifies exactly that effect — the root
   cause of the documented deviations from the paper's absolute numbers. *)

type unroll_row = {
  bench : string;
  by_factor : (int * float * float) list; (* factor, turnstile, turnpike *)
}

let unroll_factors = [ 1; 2; 4 ]

let unroll_ablation ?(params = Run.default_params) ?(wcdl = 50) () =
  Turnpike_parallel.grid ~items:(benchmarks ()) ~configs:unroll_factors
    (fun b factor ->
      let overhead scheme factor =
        let opts =
          { (Scheme.compile_opts scheme ~sb_size:4) with Run.Pass_pipeline.unroll = factor }
        in
        let prog = b.Suite.build ~scale:params.scale in
        let compiled = Run.Pass_pipeline.compile ~opts prog in
        let trace, _ =
          Turnpike_ir.Interp.trace_run ~fuel:params.fuel compiled.Run.Pass_pipeline.prog
        in
        let machine = Scheme.machine scheme ~wcdl ~sb_size:4 in
        let cycles =
          (Turnpike_arch.Timing.simulate machine trace).Sim_stats.cycles
        in
        let base_opts =
          { (Scheme.compile_opts Scheme.baseline ~sb_size:4) with
            Run.Pass_pipeline.unroll = factor }
        in
        let base_compiled = Run.Pass_pipeline.compile ~opts:base_opts prog in
        let base_trace, _ =
          Turnpike_ir.Interp.trace_run ~fuel:params.fuel
            base_compiled.Run.Pass_pipeline.prog
        in
        let base_machine = Scheme.machine Scheme.baseline ~wcdl ~sb_size:4 in
        let base_cycles =
          (Turnpike_arch.Timing.simulate base_machine base_trace).Sim_stats.cycles
        in
        float_of_int cycles /. float_of_int (max 1 base_cycles)
      in
      (overhead Scheme.turnstile factor, overhead Scheme.turnpike factor))
  |> List.map (fun (b, by) ->
         {
           bench = Suite.qualified_name b;
           by_factor = List.map (fun (f, (ts, tp)) -> (f, ts, tp)) by;
         })

(* ------------------------------------------------------------------ *)
(* Beyond the paper's figures: per-benchmark energy of the resilience
   hardware. Each quarantined store costs two store-buffer CAM accesses
   (allocate + release), each colored checkpoint a color-map access, and
   each CLQ insertion/check a CLQ RAM access; per-access energies come from
   the Table 1 cost model. Turnpike trades expensive CAM activity for
   cheap RAM lookups — quantifying the paper's power-efficiency claim. *)

type energy_row = {
  bench : string;
  turnstile_pj_per_kinstr : float;
  turnpike_pj_per_kinstr : float;
}

let resilience_energy stats ~sb_size =
  let sb = (Cost_model.store_buffer ~entries:sb_size).Cost_model.energy_pj in
  let cmap = (Cost_model.color_maps ~nregs:32 ()).Cost_model.energy_pj in
  let clq = (Cost_model.clq ~entries:2).Cost_model.energy_pj in
  (2.0 *. float_of_int stats.Sim_stats.quarantined *. sb)
  +. (float_of_int stats.Sim_stats.colored_released *. cmap)
  +. (float_of_int (stats.Sim_stats.loads + Sim_stats.sb_writes stats) *. clq)

let energy ?(params = Run.default_params) () =
  Turnpike_parallel.grid ~items:(benchmarks ())
    ~configs:[ Scheme.turnstile; Scheme.turnpike ]
    (fun b scheme ->
      let r = Run.run_with { params with wcdl = 10 } scheme b in
      let e =
        match scheme.Scheme.clq with
        | None ->
          (* Turnstile has no CLQ and no color maps: only CAM traffic. *)
          2.0 *. float_of_int r.Run.stats.Sim_stats.quarantined
          *. (Cost_model.store_buffer ~entries:4).Cost_model.energy_pj
        | Some _ -> resilience_energy r.Run.stats ~sb_size:4
      in
      1000.0 *. e /. float_of_int (max 1 r.Run.stats.Sim_stats.instructions))
  |> List.map (fun (b, by) ->
         match by with
         | [ (_, ts); (_, tp) ] ->
           {
             bench = Suite.qualified_name b;
             turnstile_pj_per_kinstr = ts;
             turnpike_pj_per_kinstr = tp;
           }
         | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Beyond the paper's figures: an SDC-freedom fault-injection campaign,
   exercising the full recovery machinery (the property the whole design
   exists to provide). *)

module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier

type resilience_row = { bench : string; campaign : Verifier.campaign }

module Snapshot = Turnpike_resilience.Snapshot

(* Benchmarks are walked sequentially (compiles are cached and cheap next
   to a campaign); the fan-out happens per FAULT inside the verifier,
   where each task replays the interpreter under the recovery executor —
   the heaviest simulation work the pool carries. One fault-free pilot per
   benchmark records the snapshots every fault then forks from. *)
let resilience ?(params = Run.default_params) ?(faults = 24) ?(seed = 7) ?stopping
    () =
  let params = { params with scale = max 1 (params.scale / 4); sb_size = 4 } in
  List.filter_map
    (fun b ->
      let c = Run.compile_with params Scheme.turnpike b in
      if not c.Run.trace.Turnpike_ir.Trace.complete then None
      else begin
        let plan = Snapshot.record c.Run.compiled in
        let faults = Injector.campaign ~seed ~count:faults c.Run.trace in
        Some
          {
            bench = Suite.qualified_name b;
            campaign =
              Verifier.run_campaign ~plan ?stopping ~golden:c.Run.final
                ~compiled:c.Run.compiled faults;
          }
      end)
    (benchmarks ())
