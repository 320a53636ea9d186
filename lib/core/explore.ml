(* Design-space exploration: every grid point is scored once, at the
   full-scale budget, and the Pareto frontier of those scores is
   re-validated. Scoring is split in two deterministic passes: timing
   simulation fans out over (point x benchmark) on the domain pool, while
   fault campaigns are walked sequentially per campaign key (the verifier
   fans out per fault internally — same structure as
   Experiments.campaign_over, which avoids nesting domain pools) and
   shared across points a campaign cannot distinguish (the core model,
   the color-pool width). *)

module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
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

let run_params (_params : Run.params) budget (p : Design_point.t) =
  {
    Run.scale = budget.scale;
    fuel = budget.fuel;
    wcdl = Design_point.wcdl p;
    sb_size = p.Design_point.sb_entries;
    baseline_sb = p.Design_point.sb_entries;
  }

(* Timing + energy of one (point, benchmark) pair: overhead against the
   unprotected baseline of the same core at the same SB depth. [None]
   when the baseline trace is degenerate (zero simulated cycles). *)
let timing_of ~params ~budget (p : Design_point.t) b =
  let bp = run_params params budget p in
  let c = Run.compile_with bp p.Design_point.rung b in
  let base = Run.compile_with bp Scheme.baseline b in
  let stats = Machine_model.simulate (Design_point.machine_model p) c.Run.trace in
  let bstats =
    Machine_model.simulate (Design_point.baseline_model p) base.Run.trace
  in
  if bstats.Sim_stats.cycles <= 0 then None
  else
    Some
      ( float_of_int stats.Sim_stats.cycles /. float_of_int bstats.Sim_stats.cycles,
        1000.0 *. dynamic_energy_pj p stats
        /. float_of_int (max 1 stats.Sim_stats.instructions) )

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
let run_campaign ~params ~budget ~seed ~forensics key b =
  let p = key_point key in
  let bp = run_params params budget p in
  let bp = { bp with Run.scale = max 1 (bp.Run.scale / 4) } in
  let c = Run.compile_with bp key.rung b in
  if not c.Run.trace.Trace.complete then (0, 0, [])
  else begin
    let config = Design_point.recovery_config p ~fuel:Recovery.default_config.Recovery.fuel in
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
    let ci, records =
      if forensics then
        let records, ci =
          Forensics.campaign_ci ~config ~plan ~stopping ~golden:c.Run.final
            ~compiled:c.Run.compiled faults
        in
        (ci, records)
      else
        ( Verifier.run_campaign_ci ~config ~plan ~stopping ~golden:c.Run.final
            ~compiled:c.Run.compiled faults,
          [] )
    in
    (ci.Verifier.report.Verifier.sdc, ci.Verifier.report.Verifier.total, records)
  end

(* Score every point under one budget. Two passes: timing on the
   domain pool, then one campaign per distinct key (first-appearance
   order). Returns (point, objectives) in the input (grid) order. *)
let score_batch ?(forensics = false) ~benches ~params ~budget ~seed points =
  let timing =
    Turnpike_parallel.grid ~items:points ~configs:benches (fun p b ->
        timing_of ~params ~budget p b)
  in
  let keys =
    List.fold_left
      (fun acc p ->
        let k = campaign_key p in
        if List.mem k acc then acc else k :: acc)
      [] points
    |> List.rev
  in
  let campaigns =
    if budget.max_faults <= 0 then []
    else
      List.map
        (fun k ->
          let by =
            if not k.rung.Scheme.resilient then (0, 0, [])
            else
              List.fold_left
                (fun (sdc, total, records) b ->
                  let s, t, r = run_campaign ~params ~budget ~seed ~forensics k b in
                  (sdc + s, total + t, records @ r))
                (0, 0, []) benches
          in
          (k, by))
        keys
  in
  (* One attribution rollup per campaign key (shared, like the campaign
     itself, by every point the campaign cannot distinguish). *)
  let rollups =
    List.map
      (fun (k, (_, _, records)) ->
        ( k,
          if forensics && records <> [] then
            Some (Forensics.summarize ~rung:k.rung.Scheme.name records)
          else None ))
      campaigns
  in
  List.map
    (fun (p, by_bench) ->
      let measured = List.filter_map snd by_bench in
      let overhead = Report.geomean (List.map fst measured) in
      let energy = Report.arith_mean (List.map snd measured) in
      let sdc, faults =
        match List.assoc_opt (campaign_key p) campaigns with
        | Some (s, t, _) -> (s, t)
        | None -> (0, 0)
      in
      let sdc_rate =
        if faults > 0 then float_of_int sdc /. float_of_int faults else 0.0
      in
      ( p,
        {
          overhead;
          area_um2 = area_um2 p;
          energy_pj_per_kinstr = energy;
          sdc_rate;
          faults;
        },
        Option.join (List.assoc_opt (campaign_key p) rollups) ))
    timing

let score ~benches ~params ~budget ~seed p =
  match score_batch ~benches ~params ~budget ~seed [ p ] with
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
  let scored = score_batch ~forensics ~benches ~params ~budget ~seed points in
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
    List.for_all
      (fun r -> score ~benches ~params ~budget ~seed r.point = r.objectives)
      frontier
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
