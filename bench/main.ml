(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (§6). Each experiment prints the same rows/series the paper
   reports, with their means over all benchmarks. Performance is measured
   by bench/perf, and the design-space explorer runs as `turnpike-cli
   explore`.

   Usage:
     dune exec bench/main.exe                  # all experiments
     dune exec bench/main.exe -- fig19 fig20   # a subset
     dune exec bench/main.exe -- --scale 4     # smaller simulation windows
     dune exec bench/main.exe -- --jobs 4      # 4 worker domains (0 = auto)
     dune exec bench/main.exe -- resilience --faults 100 --seed 3
     dune exec bench/main.exe -- resilience --ci 0.01   # stop at +/-1% SDC CI
     dune exec bench/main.exe -- --profile     # per-pass spans + pool utilization
     dune exec bench/main.exe -- --help        # every flag and experiment name

   Experiment grids — and the per-fault injection campaign — run on the
   turnpike.parallel domain pool; --jobs 1 is strictly sequential and any
   job count produces identical rows. *)

module E = Turnpike.Experiments
module Report = Turnpike.Report
module Scheme = Turnpike.Scheme
module Run = Turnpike.Run
module Suite = Turnpike_workloads.Suite
module Telemetry = Turnpike_telemetry

(* What the command line sets, read by every experiment. *)
type args = {
  params : Run.params;
  csv_dir : string option;
  seed : int;
  faults : int;
  stopping : E.Verifier.stopping option;
}

let default_campaign_faults = 24

(* Every table prints through here: under --csv, a figure that has a CSV
   file writes it first. *)
let table a ?csv cols rows =
  (match (a.csv_dir, csv) with
  | Some dir, Some name ->
    let path = Filename.concat dir (name ^ ".csv") in
    Turnpike.Csv_export.table ~path cols rows;
    Printf.printf "[csv written to %s]\n" path
  | _ -> ());
  Report.print_table cols rows

(* "PREFIX name=geomean ..." over one keyed cell list per row. *)
let print_geomeans prefix names cells rows =
  print_string prefix;
  List.iter
    (fun n ->
      Printf.printf " %s=%.3f" n
        (Report.geomean (List.map (fun r -> List.assoc n (cells r)) rows)))
    names;
  print_newline ()

(* ------------------------------------------------------------------ *)

let run_fig4 a =
  Report.section "Fig 4: checkpoint ratio vs store-buffer size (Turnstile)";
  let rows = E.fig4 ~params:a.params () in
  table a ~csv:"fig4" E.fig4_columns rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf "mean checkpoint ratio: SB=40 %.2f%%  SB=4 %.2f%%  (paper: 4.1%% vs 14.98%%)\n"
    (mean (fun r -> 100. *. r.E.ratio_sb40))
    (mean (fun r -> 100. *. r.E.ratio_sb4))

let run_fig14_15 a =
  Report.section "Figs 14/15: ideal vs compact CLQ (WAR-free + coloring only, WCDL=10)";
  let rows = E.fig14_15 ~params:a.params () in
  table a ~csv:"fig14_15" E.fig14_15_columns rows;
  let geomean f = Report.geomean (List.map f rows) in
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf
    "geomean overhead: ideal %.3f, compact %.3f (paper: compact within ~3%% of ideal)\n"
    (geomean (fun r -> r.E.overhead_ideal))
    (geomean (fun r -> r.E.overhead_compact));
  Printf.printf
    "mean WAR-free detection: ideal %.1f%%, compact %.1f%% (paper: ideal ~10.6%% higher)\n"
    (mean (fun r -> 100. *. r.E.war_free_ideal))
    (mean (fun r -> 100. *. r.E.war_free_compact))

let run_fig18 a =
  Report.section "Fig 18: detection latency vs deployed sensors";
  table a ~csv:"fig18" E.fig18_columns (E.fig18 ());
  print_endline "(paper anchor: 300 sensors @2.5GHz -> 10 cycles; 30 sensors -> ~30 cycles)"

let run_wcdl_sweep a ~csv title paper_note rows =
  Report.section title;
  table a ~csv (E.wcdl_sweep_columns rows) rows;
  let geomean w = Report.geomean (List.map (fun r -> List.assoc w r.E.overheads) rows) in
  Printf.printf "geomean:            %s\n"
    (String.concat " "
       (List.map (fun w -> Printf.sprintf "%-7s" (Report.fmt_overhead (geomean w))) E.wcdls));
  print_endline paper_note

let run_fig19 a =
  run_wcdl_sweep a ~csv:"fig19" "Fig 19: Turnpike overhead across WCDL"
    "(paper: 0%-14% average overhead for WCDL 10-50)" (E.fig19 ~params:a.params ())

let run_fig20 a =
  run_wcdl_sweep a ~csv:"fig20" "Fig 20: Turnstile overhead across WCDL"
    "(paper: 29%-84% average overhead for WCDL 10-50, outliers to 5.8x)"
    (E.fig20 ~params:a.params ())

let scheme_names = List.map (fun (s : Scheme.t) -> s.Scheme.name) Scheme.ladder

let run_fig21 a =
  Report.section "Fig 21: optimization ablation ladder (WCDL=10)";
  let rows = E.fig21 ~params:a.params () in
  table a ~csv:"fig21" (E.fig21_columns rows) rows;
  print_geomeans "geomean:          " scheme_names (fun r -> r.E.by_scheme) rows;
  print_endline
    "(paper geomeans: turnstile 1.29 -> war-free 1.25 -> +coloring 1.22 -> +pruning 1.12\n\
     -> +licm 1.10 -> +sched 1.07 -> +ra 1.02 -> turnpike 1.00)"

let run_ablation50 a =
  Report.section
    "Extension: optimization ablation ladder at WCDL=50 (paper shows only WCDL=10)";
  let rows = E.fig21_wcdl ~params:a.params ~wcdl:50 () in
  print_geomeans "geomean:" scheme_names (fun r -> r.E.by_scheme) rows;
  print_endline
    "(the compiler rungs — pruning/LICM/LIVM — matter more here than at WCDL=10:\n\
     every store they remove is one fewer 50-cycle quarantine)"

let run_motivation a =
  Report.section
    "Motivation (paper sections 1 and 3): the same Turnstile binary, out-of-order vs in-order";
  let rows = E.motivation ~params:a.params () in
  table a E.motivation_columns rows;
  let geomean f = Report.geomean (List.map f rows) in
  Printf.printf
    "geomean: OoO %.3f, in-order %.3f (paper: ~1.08 out-of-order vs 1.29 in-order at WCDL=10)\n"
    (geomean (fun r -> r.E.ooo_overhead))
    (geomean (fun r -> r.E.inorder_overhead))

let run_unroll a =
  Report.section
    "Extension: loop unrolling as a region-size knob (WCDL=50; baseline re-unrolled identically)";
  let rows = E.unroll_ablation ~params:a.params () in
  table a E.unroll_columns rows;
  print_string "geomean:";
  List.iter
    (fun f ->
      let pick which r =
        let _, ts, tp = List.find (fun (f', _, _) -> f' = f) r.E.by_factor in
        if which then ts else tp
      in
      Printf.printf "  x%d: ts=%.3f tp=%.3f" f
        (Report.geomean (List.map (pick true) rows))
        (Report.geomean (List.map (pick false) rows)))
    E.unroll_factors;
  print_newline ();
  print_endline
    "(bigger loop bodies cut checkpoint density and color-pool pressure, so\n\
     checkpoint-bound benchmarks (e.g. water-sp) improve dramatically, while\n\
     store-bound ones keep their SB bottleneck and can even regress relative to\n\
     their faster unrolled baseline — the region-size effect separating these\n\
     kernels from SPEC-sized loops)"

let run_fig22 a =
  Report.section "Fig 22: store-buffer size sensitivity (WCDL=10)";
  let rows = E.fig22 ~params:a.params () in
  table a (E.fig22_columns rows) rows;
  print_geomeans "geomean:          "
    (List.map (fun (n, _, _) -> n) E.fig22_configs)
    (fun r -> r.E.by_config) rows;
  print_endline
    "(paper: turnstile needs SB=40 to reach 1.09 while turnpike is ~1.00 at SB=4)"

let run_fig23 a =
  Report.section "Fig 23: store breakdown (WCDL=10, 2-entry CLQ)";
  let rows = E.fig23 ~params:a.params () in
  table a ~csv:"fig23" E.fig23_columns rows;
  let mean field = Report.arith_mean (List.map field rows) in
  Printf.printf
    "mean %%: pruned=%.1f licm=%.1f colored=%.1f war-free=%.1f ra=%.1f ivm=%.1f others=%.1f\n"
    (mean (fun r -> r.E.pruned))
    (mean (fun r -> r.E.licm_eliminated))
    (mean (fun r -> r.E.colored))
    (mean (fun r -> r.E.war_free))
    (mean (fun r -> r.E.ra_eliminated))
    (mean (fun r -> r.E.ivm_eliminated))
    (mean (fun r -> r.E.others));
  print_endline
    "(paper means: pruned 21%, licm 1.4%, ra 1.7%, ivm 5%, colored+war-free 39%)"

let run_fig24 a =
  Report.section "Fig 24: dynamic CLQ entries populated (WCDL=10)";
  table a E.fig24_columns (E.fig24 ~params:a.params ());
  print_endline "(paper: average ~1 entry, maximum 3-4 for some applications)"

let run_fig25 a =
  Report.section "Fig 25: 2-entry vs 4-entry compact CLQ (WCDL=10)";
  let rows = E.fig25 ~params:a.params () in
  table a E.fig25_columns rows;
  let geomean f = Report.geomean (List.map f rows) in
  Printf.printf "geomean: CLQ-2 %.3f, CLQ-4 %.3f (paper: almost identical)\n"
    (geomean (fun r -> r.E.overhead_clq2))
    (geomean (fun r -> r.E.overhead_clq4))

let run_fig26 a =
  Report.section "Fig 26: region size and code-size increase (Turnpike)";
  let rows = E.fig26 ~params:a.params () in
  table a ~csv:"fig26" E.fig26_columns rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf "mean: %.1f instructions/region, +%.2f%% code (paper: 11.2 instrs, +0.4%%)\n"
    (mean (fun r -> r.E.region_size))
    (mean (fun r -> r.E.code_increase_pct))

let run_table1 a =
  Report.section "Table 1: hardware cost (analytic CACTI model, 22nm)";
  table a E.table1_columns (E.table1 ())

let run_resilience a =
  let stopping = a.stopping in
  Report.section
    (match stopping with
    | None -> "Fault injection: SDC-freedom campaign (beyond the paper's figures)"
    | Some _ ->
      "Fault injection: sequential stopping on the SDC-rate confidence interval");
  let rows =
    E.resilience ~params:a.params ~faults:a.faults ~seed:a.seed ?stopping ()
  in
  let cols =
    match stopping with
    | None -> E.resilience_columns
    | Some _ -> E.resilience_ci_columns
  in
  table a cols rows;
  match (rows, stopping) with
  | [], _ ->
    (* Every trace ran out of fuel: no campaign ran, so there is no verdict. *)
    Printf.printf
      "no trace completed within --fuel %d at --scale %d: nothing was injected\n"
      a.params.Run.fuel a.params.Run.scale
  | _, None ->
    let sum f =
      List.fold_left
        (fun n (r : E.resilience_row) -> n + f r.campaign.E.Verifier.report)
        0 rows
    in
    Printf.printf "TOTAL: %d faults, %d SDC, %d crashes (SDC-freedom requires 0/0)\n"
      (sum (fun rep -> rep.E.Verifier.total))
      (sum (fun rep -> rep.E.Verifier.sdc))
      (sum (fun rep -> rep.E.Verifier.crashed))
  | _, Some stopping ->
    Printf.printf
      "(stop target: half-width %.4f at %g%% confidence; 'supply' = fault list \
       exhausted first)\n"
      stopping.E.Verifier.half_width
      (100.0 *. stopping.E.Verifier.confidence)

let run_energy a =
  Report.section "Resilience-hardware energy (beyond the paper's figures)";
  let rows = E.energy ~params:a.params () in
  table a E.energy_columns rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf
    "mean: turnstile %.2f, turnpike %.2f pJ per 1000 instructions\n\
     (Turnpike trades store-buffer CAM quarantine traffic for cheap RAM lookups;\n\
     per-access energies from the Table 1 model)\n"
    (mean (fun r -> r.E.turnstile_pj_per_kinstr))
    (mean (fun r -> r.E.turnpike_pj_per_kinstr))

(* ------------------------------------------------------------------ *)
(* --profile: wall-clock telemetry for the harness itself — per-pass
   compile spans beside the per-pass registry round that follows each
   pass, and pool utilization. The Run compile cache memoizes
   compilation, so the pass profile drives [Pass_pipeline.compile]
   directly (a cache hit would emit no spans). *)

let profile a =
  Telemetry.Clock.set Unix.gettimeofday;
  let scale = a.params.Run.scale in
  Report.section
    (Printf.sprintf
       "Profile: per-pass compile spans and registry rounds (libquan, turnpike opts, \
        check PerPass, scale %d)"
       scale);
  let bench = List.hd (Suite.find_by_name "libquan") in
  let prog = bench.Suite.build ~scale in
  let opts = Scheme.compile_opts Scheme.turnpike ~sb_size:4 in
  let tel = Telemetry.create () in
  ignore
    (Turnpike_compiler.Pass_pipeline.compile ~opts ~tel
       ~check:Turnpike_compiler.Pass_pipeline.PerPass prog);
  let events = Telemetry.events tel in
  let spans cat =
    List.filter (fun (e : Telemetry.event) -> String.equal e.Telemetry.cat cat) events
  in
  let us (e : Telemetry.event) =
    match e.Telemetry.kind with Telemetry.Complete d -> d | _ -> 0
  in
  let passes = spans "compiler" and rounds = spans "analysis" in
  (* the round a pass's name labels is the one that checked its output *)
  let round_us name =
    match List.find_opt (fun (e : Telemetry.event) -> String.equal e.Telemetry.name name) rounds with
    | Some e -> us e
    | None -> 0
  in
  table a
    Report.
      [
        str "pass" 26 (fun (e : Telemetry.event) -> e.Telemetry.name);
        int "us" 8 us;
        int "registry us" 12 (fun (e : Telemetry.event) -> round_us e.Telemetry.name);
        str "stat deltas" 44 (fun e ->
            String.concat " "
              (List.map
                 (fun (k, v) ->
                   match v with
                   | Telemetry.Int i -> Printf.sprintf "%s%+d" k i
                   | _ -> k)
                 e.Telemetry.args));
      ]
    passes;
  let total = List.fold_left (fun acc e -> acc + us e) 0 in
  Printf.printf "%d pass spans (pipeline declares %d passes)\n" (List.length passes)
    (List.length (Turnpike_compiler.Pass_pipeline.pass_names opts));
  Printf.printf "passes %d us, registry %d us over %d rounds (%d us on the input)\n"
    (total passes) (total rounds) (List.length rounds) (round_us "<input>");

  Report.section "Profile: pool utilization (fig19 grid)";
  let pool_tel = Telemetry.create ~capacity:65536 () in
  Turnpike_parallel.set_telemetry pool_tel;
  ignore (E.fig19 ~params:a.params ());
  Turnpike_parallel.set_telemetry Telemetry.null;
  (match Turnpike_parallel.last_map_stats () with
  | None -> print_endline "no parallel map ran"
  | Some s ->
    Printf.printf "last map: %d tasks on %d worker(s), wall %d us, utilization %.1f%%\n"
      s.Turnpike_parallel.tasks s.Turnpike_parallel.jobs s.Turnpike_parallel.wall_us
      (100. *. Turnpike_parallel.utilization s);
    Array.iteri
      (fun w busy ->
        Printf.printf "  worker %d: busy %8d us, %3d task(s)\n" w busy
          s.Turnpike_parallel.worker_tasks.(w))
      s.Turnpike_parallel.busy_us);
  Printf.printf "pool span events recorded: %d (dropped: %d)\n"
    (Telemetry.length pool_tel) (Telemetry.dropped pool_tel)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", run_fig4); ("fig14", run_fig14_15); ("fig15", run_fig14_15);
    ("fig18", run_fig18); ("fig19", run_fig19); ("fig20", run_fig20);
    ("fig21", run_fig21); ("fig22", run_fig22); ("fig23", run_fig23);
    ("fig24", run_fig24); ("fig25", run_fig25); ("fig26", run_fig26);
    ("table1", run_table1); ("resilience", run_resilience);
    ("energy", run_energy); ("ablation50", run_ablation50);
    ("unroll", run_unroll); ("motivation", run_motivation);
  ]

let main () scale fuel seed faults stopping profiled selected csv_dir =
  let a =
    { params = { Run.default_params with scale; fuel }; csv_dir; seed; faults; stopping }
  in
  if profiled then profile a;
  let selected =
    if selected = [] && not profiled then List.map fst experiments else selected
  in
  (* fig14 and fig15 share a driver; avoid printing it twice. *)
  let selected =
    if List.mem "fig14" selected && List.mem "fig15" selected then
      List.filter (fun s -> s <> "fig15") selected
    else selected
  in
  List.iter (fun name -> (List.assoc name experiments) a) selected

let () =
  let open Cmdliner in
  let fuel =
    Cli.positive ~flag:"--fuel" ~expects:"a positive step budget"
      Arg.(
        value
        & opt int Run.default_fuel
        & info [ "fuel" ] ~docv:"N" ~doc:"Interpreter step budget per simulated run.")
  in
  let profiled =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Before the selected experiments, print per-pass compile spans \
             and the pool utilization of a fig19 grid. With no EXPERIMENT \
             named, only the profile runs.")
  in
  let names = List.map fst experiments in
  let selected =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:("Experiments to run, in order (default: all): " ^ doc_alts names ^ "."))
  in
  let doc =
    "Regenerate the tables and figures of the Turnpike paper's evaluation."
  in
  Cli.eval
    (Cmd.v (Cli.info "main.exe" ~doc)
       Term.(
         const main $ Cli.jobs $ Cli.scale $ fuel $ Cli.seed
         $ Cli.faults default_campaign_faults
         $ Cli.stopping $ profiled $ selected
         $ Cli.csv ~doc:"Also write each figure's rows as CSV under $(docv)."))
