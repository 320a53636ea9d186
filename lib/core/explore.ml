(* Design-space exploration: every grid point is scored once, at the
   full-scale budget, and the Pareto frontier of those scores is
   re-validated. Scoring is two index-ordered fan-outs on the domain pool,
   each over distinct work only: one task per distinct timing simulation
   (points that lower to the same core model on the same binary share
   one), then one task per (campaign key, benchmark) that runs its whole
   CI-stopped campaign inside the worker. A map issued from a worker runs
   sequentially, so the verifier's per-batch fan-out spawns no domain
   there, and the results are identical at any job count. *)

module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
module Machine = Turnpike_arch.Machine
module Machine_model = Turnpike_arch.Machine_model
module Cost_model = Turnpike_arch.Cost_model
module Sensor = Turnpike_arch.Sensor
module Clq = Turnpike_arch.Clq
module Recovery = Turnpike_resilience.Recovery
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Forensics = Turnpike_resilience.Forensics
module Trace = Turnpike_ir.Trace

type objectives = {
  overhead : float;
  area_um2 : float;
  energy_pj_per_kinstr : float;
  sdc_rate : float;
  faults : int;
}

let objective_vector o =
  [| o.overhead; o.area_um2; o.energy_pj_per_kinstr; o.sdc_rate |]

type budget = {
  label : string;
  scale : int;
  fuel : int;
  max_faults : int;
  ci_half_width : float;
}

let full_budget (params : Run.params) =
  {
    label = "full";
    scale = params.Run.scale;
    fuel = params.Run.fuel;
    max_faults = 64;
    ci_half_width = 0.05;
  }

let budgets_for params = [ full_budget params ]

let default_benches () =
  List.filter_map
    (fun (suite, name) -> Suite.find ~suite ~name)
    [
      (Suite.Cpu2006, "libquan");
      (Suite.Cpu2006, "mcf");
      (Suite.Splash3, "radix");
    ]

(* ------------------------------------------------------------------ *)
(* Static area and per-run dynamic energy of a point's hardware. *)

let nregs = 32

let area_um2 (p : Design_point.t) =
  let sb = (Cost_model.store_buffer ~entries:p.Design_point.sb_entries).Cost_model.area_um2 in
  let clq =
    match Design_point.clq_design p with
    | Some (Clq.Compact n) -> (Cost_model.clq ~entries:n).Cost_model.area_um2
    | Some Clq.Ideal | None -> 0.0
  in
  let cmap =
    if p.Design_point.color_bits > 0 then
      (Cost_model.color_maps ~colors:(1 lsl p.Design_point.color_bits) ~nregs ())
        .Cost_model.area_um2
    else 0.0
  in
  let sensor = Sensor.create ~num_sensors:p.Design_point.sensors ~clock_ghz:Design_point.clock_ghz () in
  let sensors =
    Sensor.area_overhead_percent sensor /. 100.0 *. 1.0e6 (* of the 1mm^2 die *)
  in
  sb +. clq +. cmap +. sensors

let dynamic_energy_pj (p : Design_point.t) (stats : Sim_stats.t) =
  let sb = (Cost_model.store_buffer ~entries:p.Design_point.sb_entries).Cost_model.energy_pj in
  let cam = 2.0 *. float_of_int stats.Sim_stats.quarantined *. sb in
  let cmap =
    if p.Design_point.color_bits > 0 then
      float_of_int stats.Sim_stats.colored_released
      *. (Cost_model.color_maps ~colors:(1 lsl p.Design_point.color_bits) ~nregs ())
           .Cost_model.energy_pj
    else 0.0
  in
  let clq =
    match Design_point.clq_design p with
    | Some (Clq.Compact n) ->
      float_of_int (stats.Sim_stats.loads + Sim_stats.sb_writes stats)
      *. (Cost_model.clq ~entries:n).Cost_model.energy_pj
    | Some Clq.Ideal | None -> 0.0
  in
  cam +. cmap +. clq

(* ------------------------------------------------------------------ *)
(* Evaluation under a budget. *)

let run_params budget (p : Design_point.t) =
  {
    Run.scale = budget.scale;
    fuel = budget.fuel;
    wcdl = Design_point.wcdl p;
    sb_size = p.Design_point.sb_entries;
    baseline_sb = p.Design_point.sb_entries;
  }

(* A simulation is a pure function of (core model, trace), and a trace of
   (benchmark, compile key) under one budget. The in-order model's name is
   the point id, a label no timing result reads, so it is blanked: points
   that differ only in axes a core ignores then share one simulation (the
   OoO core's CLQ and color bits; everything but core and SB depth for a
   baseline). *)
let sim_model = function
  | Machine_model.In_order m -> Machine_model.In_order { m with Machine.name = "" }
  | Machine_model.Out_of_order _ as m -> m

(* A fault campaign only observes the binary (rung, SB depth), the
   functional recovery configuration (CLQ, coloring on/off, WCDL) and the
   trace window — not the core's timing model or the color-pool width.
   Points that agree on this key share one campaign. *)
type campaign_key = {
  rung : Scheme.t;
  sb : int;
  clq_entries : int;
  colored : bool;
  sensors : int;
}

let campaign_key (p : Design_point.t) =
  {
    rung = p.Design_point.rung;
    sb = p.Design_point.sb_entries;
    clq_entries = p.Design_point.clq_entries;
    colored = p.Design_point.color_bits > 0;
    sensors = p.Design_point.sensors;
  }

(* A representative point of the key, for the config lowerings. *)
let key_point k : Design_point.t =
  {
    Design_point.core = Design_point.In_order;
    sb_entries = k.sb;
    clq_entries = k.clq_entries;
    color_bits = (if k.colored then 2 else 0);
    sensors = k.sensors;
    rung = k.rung;
  }

(* Campaigns run on shortened traces (quarter scale of the budget, as the
   resilience experiments do): each fault forks the recovery executor
   from the nearest snapshot, and the verifier's sequential stopping rule
   keeps the consumed fault count deterministic at any job count. *)
let run_campaign ~budget ~seed ~forensics key b =
  let p = key_point key in
  let bp = run_params budget p in
  let bp = { bp with Run.scale = max 1 (bp.Run.scale / 4) } in
  let c = Run.compile_with bp key.rung b in
  if not c.Run.trace.Trace.complete then (0, 0, [])
  else begin
    let config = Design_point.recovery_config p in
    let plan = Snapshot.record ~config c.Run.compiled in
    let faults = Injector.campaign ~seed ~count:budget.max_faults c.Run.trace in
    let stopping =
      {
        Verifier.half_width = budget.ci_half_width;
        confidence = 0.95;
        batch = max 1 (min 8 budget.max_faults);
        min_faults = min budget.max_faults 16;
      }
    in
    (* With forensics, the same CI loop runs with one lifecycle sink per
       fault: sinks never influence outcomes, so the (sdc, total) pair —
       and therefore the frontier and its validation — is identical
       either way. *)
    let records, r =
      if forensics then
        Forensics.campaign ~config ~plan ~stopping ~golden:c.Run.final
          ~compiled:c.Run.compiled faults
      else
        ( [],
          Verifier.run_campaign ~config ~plan ~stopping ~golden:c.Run.final
            ~compiled:c.Run.compiled faults )
    in
    (r.Verifier.report.Verifier.sdc, r.Verifier.report.Verifier.total, records)
  end

(* First-appearance order of the distinct [key x] over [xs]. *)
let distinct key xs =
  List.fold_left
    (fun acc x ->
      let k = key x in
      if List.mem k acc then acc else k :: acc)
    [] xs
  |> List.rev

(* Score every point under one budget. Two fan-outs, each over distinct
   work in first-appearance order: the simulations (every point needs its
   own core and its baseline on each benchmark), then one whole campaign
   per resilient (campaign key, benchmark). Returns (point, objectives,
   rollup) in the input (grid) order. *)
let score_batch ?(forensics = false) ~benches ~budget ~seed points =
  let benches = Array.of_list benches in
  let sims = Hashtbl.create 64 and sim_tasks = ref [] in
  let sim (p : Design_point.t) model (scheme : Scheme.t) b =
    let model = sim_model model in
    let key = (model, b, Scheme.compile_key scheme ~sb_size:p.Design_point.sb_entries) in
    match Hashtbl.find_opt sims key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length sims in
      Hashtbl.add sims key i;
      sim_tasks := (run_params budget p, model, scheme, benches.(b)) :: !sim_tasks;
      i
  in
  let sim_pairs =
    List.map
      (fun p ->
        Array.init (Array.length benches) (fun b ->
            ( sim p (Design_point.machine_model p) p.Design_point.rung b,
              sim p (Design_point.baseline_model p) Scheme.baseline b )))
      points
  in
  let stats =
    Turnpike_parallel.map
      (fun (bp, model, scheme, b) ->
        Machine_model.simulate model (Run.compile_with bp scheme b).Run.trace)
      (Array.of_list (List.rev !sim_tasks))
  in
  let keys =
    if budget.max_faults <= 0 then [||]
    else
      distinct campaign_key points
      |> List.filter (fun k -> k.rung.Scheme.resilient)
      |> Array.of_list
  in
  let nb = Array.length benches in
  let runs =
    Turnpike_parallel.map
      (fun i -> run_campaign ~budget ~seed ~forensics keys.(i / nb) benches.(i mod nb))
      (Array.init (Array.length keys * nb) Fun.id)
  in
  (* Sum each key's campaigns over the benchmarks, in benchmark order,
     with one attribution rollup per key (shared, like the campaign
     itself, by every point the campaign cannot distinguish). *)
  let campaigns =
    Array.to_list keys
    |> List.mapi (fun ki k ->
           let sdc, total, records =
             Array.fold_left
               (fun (sdc, total, records) (s, t, r) -> (sdc + s, total + t, records @ r))
               (0, 0, [])
               (Array.sub runs (ki * nb) nb)
           in
           let rollup =
             if forensics && records <> [] then
               Some (Forensics.summarize ~rung:k.rung.Scheme.name records)
             else None
           in
           (k, (sdc, total, rollup)))
  in
  List.map2
    (fun p pairs ->
      let measured =
        Array.to_list pairs
        |> List.filter_map (fun (s, base) ->
               let stats = stats.(s) and bstats = stats.(base) in
               (* Overhead against the unprotected baseline of the same core
                  at the same SB depth; a degenerate baseline (zero cycles)
                  leaves the benchmark out. *)
               if bstats.Sim_stats.cycles <= 0 then None
               else
                 Some
                   ( float_of_int stats.Sim_stats.cycles
                     /. float_of_int bstats.Sim_stats.cycles,
                     1000.0 *. dynamic_energy_pj p stats
                     /. float_of_int (max 1 stats.Sim_stats.instructions) ))
      in
      let sdc, faults, rollup =
        Option.value ~default:(0, 0, None) (List.assoc_opt (campaign_key p) campaigns)
      in
      let sdc_rate =
        if faults > 0 then float_of_int sdc /. float_of_int faults else 0.0
      in
      ( p,
        {
          overhead = Report.geomean (List.map fst measured);
          area_um2 = area_um2 p;
          energy_pj_per_kinstr = Report.arith_mean (List.map snd measured);
          sdc_rate;
          faults;
        },
        rollup ))
    points sim_pairs

let score ~benches ~budget ~seed p =
  match score_batch ~benches ~budget ~seed [ p ] with
  | [ (_, o, _) ] -> o
  | _ -> assert false

type point_result = {
  point : Design_point.t;
  objectives : objectives;
  on_frontier : bool;
  forensics : Forensics.summary option;
      (* attribution rollup of the point's (shared) campaign; deliberately
         OUTSIDE [objectives] so frontier re-validation still compares
         scalar objectives exactly *)
}

type report = {
  grid_size : int;
  results : point_result list;
  frontier : point_result list;
  evals_per_budget : (string * int) list;
  validated : bool;
  benches : string list;
  seed : int;
}

let run ?benches ?budget ?(seed = 7) ?(params = Run.default_params)
    ?(forensics = false) ~(spec : Design_point.spec) () =
  let benches = match benches with Some bs -> bs | None -> default_benches () in
  let budget = match budget with Some b -> b | None -> full_budget params in
  let points = Design_point.grid spec in
  let scored = score_batch ~forensics ~benches ~budget ~seed points in
  let frontier_ids =
    Pareto.frontier ~objectives:(fun (_, o, _) -> objective_vector o) scored
    |> List.map (fun (p, _, _) -> Design_point.id p)
  in
  let results =
    List.map
      (fun (point, objectives, forensics) ->
        {
          point;
          objectives;
          on_frontier = List.mem (Design_point.id point) frontier_ids;
          forensics;
        })
      scored
  in
  let frontier = List.filter (fun r -> r.on_frontier) results in
  (* Re-validate the frontier: re-running the evaluation of a frontier
     point must reproduce its recorded objectives exactly. *)
  let validated =
    Turnpike_parallel.map_list
      (fun r -> score ~benches ~budget ~seed r.point = r.objectives)
      frontier
    |> List.for_all Fun.id
  in
  {
    grid_size = List.length points;
    results;
    frontier;
    evals_per_budget = [ (budget.label, List.length points) ];
    validated;
    benches = List.map Suite.qualified_name benches;
    seed;
  }
