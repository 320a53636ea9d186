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

   Experiment grids — and the per-fault injection campaign — run on the
   turnpike.parallel domain pool; --jobs 1 is strictly sequential and any
   job count produces identical rows. *)

module E = Turnpike.Experiments
module Report = Turnpike.Report
module Scheme = Turnpike.Scheme
module Run = Turnpike.Run
module Suite = Turnpike_workloads.Suite
module Telemetry = Turnpike_telemetry

let params = ref Run.default_params
let csv_dir : string option ref = ref None

(* Shared campaign knobs (--seed/--faults/--ci/--confidence/--batch/--jobs):
   one arg spec with turnpike-cli, see Campaign_args. *)
let campaign = ref Turnpike.Campaign_args.default
let default_campaign_faults = 24

(* Create the --csv directory when the flag is parsed (one level, as mkdir
   does), keeping an existing one, or exit 1 before any work, naming the
   path and the reason. *)
let make_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _)
    when (try Sys.is_directory dir with Sys_error _ -> false) ->
    ()
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot create directory %s: %s\n" dir (Unix.error_message e);
    exit 1

let csv name render rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    render ~path rows;
    Printf.printf "[csv written to %s]\n" path

(* ------------------------------------------------------------------ *)

let run_fig4 () =
  Report.section "Fig 4: checkpoint ratio vs store-buffer size (Turnstile)";
  let rows = E.fig4 ~params:!params () in
  csv "fig4" Turnpike.Csv_export.fig4 rows;
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "SB=40"; width = 8 };
             { title = "SB=4"; width = 8 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig4_row) ->
      Report.print_row cols
        [ r.bench; Report.fmt_pct (100. *. r.ratio_sb40); Report.fmt_pct (100. *. r.ratio_sb4) ])
    rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf "mean checkpoint ratio: SB=40 %.2f%%  SB=4 %.2f%%  (paper: 4.1%% vs 14.98%%)\n"
    (mean (fun r -> 100. *. r.E.ratio_sb40))
    (mean (fun r -> 100. *. r.E.ratio_sb4))

let run_fig14_15 () =
  Report.section "Figs 14/15: ideal vs compact CLQ (WAR-free + coloring only, WCDL=10)";
  let rows = E.fig14_15 ~params:!params () in
  csv "fig14_15" Turnpike.Csv_export.fig14_15 rows;
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "ov ideal"; width = 9 };
             { title = "ov compact"; width = 10 }; { title = "wf ideal"; width = 9 };
             { title = "wf compact"; width = 10 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.clq_design_row) ->
      Report.print_row cols
        [ r.bench; Report.fmt_overhead r.overhead_ideal;
          Report.fmt_overhead r.overhead_compact;
          Report.fmt_pct (100. *. r.war_free_ideal);
          Report.fmt_pct (100. *. r.war_free_compact) ])
    rows;
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

let run_fig18 () =
  Report.section "Fig 18: detection latency vs deployed sensors";
  let cols =
    Report.[ { title = "#sensors"; width = 8 }; { title = "2.0GHz"; width = 7 };
             { title = "2.5GHz"; width = 7 }; { title = "3.0GHz"; width = 7 } ]
  in
  Report.print_header cols;
  csv "fig18" Turnpike.Csv_export.fig18 (E.fig18 ());
  List.iter
    (fun (r : E.fig18_row) ->
      Report.print_row cols
        [ string_of_int r.sensors; string_of_int r.dl_2_0ghz;
          string_of_int r.dl_2_5ghz; string_of_int r.dl_3_0ghz ])
    (E.fig18 ());
  print_endline "(paper anchor: 300 sensors @2.5GHz -> 10 cycles; 30 sensors -> ~30 cycles)"

let print_wcdl_sweep title paper_note rows =
  Report.section title;
  let cols =
    Report.(
      { title = "benchmark"; width = 18 }
      :: List.map (fun w -> { title = Printf.sprintf "DL%d" w; width = 7 }) E.wcdls)
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.wcdl_sweep_row) ->
      Report.print_row cols
        (r.bench :: List.map (fun (_, ov) -> Report.fmt_overhead ov) r.overheads))
    rows;
  let geomean w = Report.geomean (List.map (fun r -> List.assoc w r.E.overheads) rows) in
  Printf.printf "geomean:            %s\n"
    (String.concat " "
       (List.map (fun w -> Printf.sprintf "%-7s" (Report.fmt_overhead (geomean w))) E.wcdls));
  print_endline paper_note

let run_fig19 () =
  let rows = E.fig19 ~params:!params () in
  csv "fig19" Turnpike.Csv_export.wcdl_sweep rows;
  print_wcdl_sweep "Fig 19: Turnpike overhead across WCDL"
    "(paper: 0%-14% average overhead for WCDL 10-50)" rows

let run_fig20 () =
  let rows = E.fig20 ~params:!params () in
  csv "fig20" Turnpike.Csv_export.wcdl_sweep rows;
  print_wcdl_sweep "Fig 20: Turnstile overhead across WCDL"
    "(paper: 29%-84% average overhead for WCDL 10-50, outliers to 5.8x)" rows

let run_fig21 () =
  Report.section "Fig 21: optimization ablation ladder (WCDL=10)";
  let rows = E.fig21 ~params:!params () in
  csv "fig21" Turnpike.Csv_export.ladder rows;
  let scheme_names = List.map (fun (s : Scheme.t) -> s.Scheme.name) Scheme.ladder in
  let cols =
    Report.(
      { title = "benchmark"; width = 18 }
      :: List.map (fun n -> { title = n; width = max 9 (String.length n) }) scheme_names)
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig21_row) ->
      Report.print_row cols
        (r.bench
        :: List.map (fun n -> Report.fmt_overhead (List.assoc n r.by_scheme)) scheme_names))
    rows;
  print_string "geomean:          ";
  List.iter
    (fun n ->
      Printf.printf " %s=%.3f" n
        (Report.geomean (List.map (fun r -> List.assoc n r.E.by_scheme) rows)))
    scheme_names;
  print_newline ();
  print_endline
    "(paper geomeans: turnstile 1.29 -> war-free 1.25 -> +coloring 1.22 -> +pruning 1.12\n\
     -> +licm 1.10 -> +sched 1.07 -> +ra 1.02 -> turnpike 1.00)"

let run_ablation50 () =
  Report.section
    "Extension: optimization ablation ladder at WCDL=50 (paper shows only WCDL=10)";
  let rows = E.fig21_wcdl ~params:!params ~wcdl:50 () in
  let scheme_names = List.map (fun (s : Scheme.t) -> s.Scheme.name) Scheme.ladder in
  print_string "geomean:";
  List.iter
    (fun n ->
      Printf.printf " %s=%.3f" n
        (Report.geomean (List.map (fun r -> List.assoc n r.E.by_scheme) rows)))
    scheme_names;
  print_newline ();
  print_endline
    "(the compiler rungs — pruning/LICM/LIVM — matter more here than at WCDL=10:\n\
     every store they remove is one fewer 50-cycle quarantine)"

let run_motivation () =
  Report.section
    "Motivation (paper sections 1 and 3): the same Turnstile binary, out-of-order vs in-order";
  let rows = E.motivation ~params:!params () in
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "OoO (SB=40)"; width = 11 };
             { title = "in-order (SB=4)"; width = 15 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.motivation_row) ->
      Report.print_row cols
        [ r.bench; Report.fmt_overhead r.ooo_overhead;
          Report.fmt_overhead r.inorder_overhead ])
    rows;
  let geomean f = Report.geomean (List.map f rows) in
  Printf.printf
    "geomean: OoO %.3f, in-order %.3f (paper: ~1.08 out-of-order vs 1.29 in-order at WCDL=10)\n"
    (geomean (fun r -> r.E.ooo_overhead))
    (geomean (fun r -> r.E.inorder_overhead))

let run_unroll () =
  Report.section
    "Extension: loop unrolling as a region-size knob (WCDL=50; baseline re-unrolled identically)";
  let rows = E.unroll_ablation ~params:!params () in
  let cols =
    Report.(
      { title = "benchmark"; width = 18 }
      :: List.concat_map
           (fun f ->
             [ { title = Printf.sprintf "ts x%d" f; width = 7 };
               { title = Printf.sprintf "tp x%d" f; width = 7 } ])
           E.unroll_factors)
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.unroll_row) ->
      Report.print_row cols
        (r.bench
        :: List.concat_map
             (fun (_, ts, tp) -> [ Report.fmt_overhead ts; Report.fmt_overhead tp ])
             r.by_factor))
    rows;
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

let run_fig22 () =
  Report.section "Fig 22: store-buffer size sensitivity (WCDL=10)";
  let rows = E.fig22 ~params:!params () in
  let config_names = List.map (fun (n, _, _) -> n) E.fig22_configs in
  let cols =
    Report.(
      { title = "benchmark"; width = 18 }
      :: List.map (fun n -> { title = n; width = max 9 (String.length n) }) config_names)
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig22_row) ->
      Report.print_row cols
        (r.bench
        :: List.map (fun n -> Report.fmt_overhead (List.assoc n r.by_config)) config_names))
    rows;
  print_string "geomean:          ";
  List.iter
    (fun n ->
      Printf.printf " %s=%.3f" n
        (Report.geomean (List.map (fun r -> List.assoc n r.E.by_config) rows)))
    config_names;
  print_newline ();
  print_endline
    "(paper: turnstile needs SB=40 to reach 1.09 while turnpike is ~1.00 at SB=4)"

let run_fig23 () =
  Report.section "Fig 23: store breakdown (WCDL=10, 2-entry CLQ)";
  let rows = E.fig23 ~params:!params () in
  csv "fig23" Turnpike.Csv_export.fig23 rows;
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "pruned"; width = 7 };
             { title = "licm"; width = 6 }; { title = "colored"; width = 8 };
             { title = "war-free"; width = 8 }; { title = "ra-elim"; width = 7 };
             { title = "ivm-elim"; width = 8 }; { title = "others"; width = 7 } ]
  in
  Report.print_header cols;
  let f = Printf.sprintf "%.1f" in
  List.iter
    (fun (r : E.fig23_row) ->
      Report.print_row cols
        [ r.bench; f r.pruned; f r.licm_eliminated; f r.colored; f r.war_free;
          f r.ra_eliminated; f r.ivm_eliminated; f r.others ])
    rows;
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

let run_fig24 () =
  Report.section "Fig 24: dynamic CLQ entries populated (WCDL=10)";
  let rows = E.fig24 ~params:!params () in
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "average"; width = 8 };
             { title = "maximum"; width = 8 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig24_row) ->
      Report.print_row cols
        [ r.bench; Printf.sprintf "%.2f" r.mean_entries; string_of_int r.max_entries ])
    rows;
  print_endline "(paper: average ~1 entry, maximum 3-4 for some applications)"

let run_fig25 () =
  Report.section "Fig 25: 2-entry vs 4-entry compact CLQ (WCDL=10)";
  let rows = E.fig25 ~params:!params () in
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "CLQ-2"; width = 7 };
             { title = "CLQ-4"; width = 7 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig25_row) ->
      Report.print_row cols
        [ r.bench; Report.fmt_overhead r.overhead_clq2; Report.fmt_overhead r.overhead_clq4 ])
    rows;
  let geomean f = Report.geomean (List.map f rows) in
  Printf.printf "geomean: CLQ-2 %.3f, CLQ-4 %.3f (paper: almost identical)\n"
    (geomean (fun r -> r.E.overhead_clq2))
    (geomean (fun r -> r.E.overhead_clq4))

let run_fig26 () =
  Report.section "Fig 26: region size and code-size increase (Turnpike)";
  let rows = E.fig26 ~params:!params () in
  csv "fig26" Turnpike.Csv_export.fig26 rows;
  let cols =
    Report.[ { title = "benchmark"; width = 18 }; { title = "region size"; width = 11 };
             { title = "code +%"; width = 8 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.fig26_row) ->
      Report.print_row cols
        [ r.bench; Printf.sprintf "%.1f" r.region_size;
          Printf.sprintf "%.2f" r.code_increase_pct ])
    rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf "mean: %.1f instructions/region, +%.2f%% code (paper: 11.2 instrs, +0.4%%)\n"
    (mean (fun r -> r.E.region_size))
    (mean (fun r -> r.E.code_increase_pct))

let run_table1 () =
  Report.section "Table 1: hardware cost (analytic CACTI model, 22nm)";
  let cols =
    Report.[ { title = "structure"; width = 46 }; { title = "area (um^2)"; width = 12 };
             { title = "dyn access (pJ)"; width = 15 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.Cost_model.table1_row) ->
      Report.print_row cols
        [ r.label; Printf.sprintf "%.3f" r.area_um2; Printf.sprintf "%.5f" r.energy_pj ])
    (E.table1 ())

let campaign_faults () =
  Option.value ~default:default_campaign_faults (!campaign).Turnpike.Campaign_args.faults

let run_resilience () =
  let stopping = Turnpike.Campaign_args.stopping !campaign in
  Report.section
    (match stopping with
    | None -> "Fault injection: SDC-freedom campaign (beyond the paper's figures)"
    | Some _ ->
      "Fault injection: sequential stopping on the SDC-rate confidence interval");
  let rows =
    E.resilience ~params:!params ~faults:(campaign_faults ())
      ~seed:(!campaign).Turnpike.Campaign_args.seed ?stopping ()
  in
  match stopping with
  | None ->
    let cols =
      Report.[ { title = "benchmark"; width = 18 }; { title = "faults"; width = 7 };
               { title = "recovered"; width = 9 }; { title = "SDC"; width = 5 };
               { title = "crashed"; width = 7 }; { title = "parity"; width = 7 };
               { title = "sensor"; width = 7 }; { title = "reexec +%"; width = 9 } ]
    in
    Report.print_header cols;
    let totals = ref (0, 0, 0) in
    List.iter
      (fun (r : E.resilience_row) ->
        let rep = r.campaign.E.Verifier.report in
        let t, s, c = !totals in
        totals := (t + rep.E.Verifier.total, s + rep.E.Verifier.sdc, c + rep.E.Verifier.crashed);
        Report.print_row cols
          [ r.bench; string_of_int rep.E.Verifier.total;
            string_of_int rep.E.Verifier.recovered; string_of_int rep.E.Verifier.sdc;
            string_of_int rep.E.Verifier.crashed;
            string_of_int rep.E.Verifier.parity_detections;
            string_of_int rep.E.Verifier.sensor_detections;
            Printf.sprintf "%.2f" (100. *. rep.E.Verifier.mean_reexec_overhead) ])
      rows;
    let t, s, c = !totals in
    Printf.printf "TOTAL: %d faults, %d SDC, %d crashes (SDC-freedom requires 0/0)\n" t s c
  | Some stopping ->
    let cols =
      Report.[ { title = "benchmark"; width = 18 }; { title = "faults"; width = 7 };
               { title = "SDC rate"; width = 8 }; { title = "ci low"; width = 7 };
               { title = "ci high"; width = 7 }; { title = "+/-"; width = 7 };
               { title = "batches"; width = 7 }; { title = "stopped"; width = 9 } ]
    in
    Report.print_header cols;
    List.iter
      (fun (r : E.resilience_row) ->
        (* A stopping rule was given, so every campaign carries its interval. *)
        let ci = Option.get r.campaign.E.Verifier.ci in
        Report.print_row cols
          [ r.bench; string_of_int r.campaign.E.Verifier.report.E.Verifier.total;
            Printf.sprintf "%.4f" ci.E.Verifier.sdc_rate;
            Printf.sprintf "%.4f" ci.E.Verifier.ci_low;
            Printf.sprintf "%.4f" ci.E.Verifier.ci_high;
            Printf.sprintf "%.4f" ci.E.Verifier.achieved_half_width;
            string_of_int ci.E.Verifier.batches;
            (if ci.E.Verifier.exhausted then "supply" else "interval") ])
      rows;
    Printf.printf
      "(stop target: half-width %.4f at %g%% confidence; 'supply' = fault list \
       exhausted first)\n"
      stopping.E.Verifier.half_width
      (100.0 *. stopping.E.Verifier.confidence)

let run_energy () =
  Report.section "Resilience-hardware energy (beyond the paper's figures)";
  let rows = E.energy ~params:!params () in
  let cols =
    Report.[ { title = "benchmark"; width = 18 };
             { title = "turnstile pJ/kinstr"; width = 19 };
             { title = "turnpike pJ/kinstr"; width = 18 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (r : E.energy_row) ->
      Report.print_row cols
        [ r.bench; Printf.sprintf "%.2f" r.turnstile_pj_per_kinstr;
          Printf.sprintf "%.2f" r.turnpike_pj_per_kinstr ])
    rows;
  let mean f = Report.arith_mean (List.map f rows) in
  Printf.printf
    "mean: turnstile %.2f, turnpike %.2f pJ per 1000 instructions\n\
     (Turnpike trades store-buffer CAM quarantine traffic for cheap RAM lookups;\n\
     per-access energies from the Table 1 model)\n"
    (mean (fun r -> r.E.turnstile_pj_per_kinstr))
    (mean (fun r -> r.E.turnpike_pj_per_kinstr))

(* ------------------------------------------------------------------ *)
(* --profile: wall-clock telemetry for the harness itself — per-pass
   compile spans and pool utilization. The Run compile cache memoizes
   compilation, so the pass profile drives [Pass_pipeline.compile]
   directly (a cache hit would emit no spans). *)

let profile () =
  Telemetry.Clock.set Unix.gettimeofday;
  let scale = (!params).Run.scale in
  Report.section
    (Printf.sprintf "Profile: per-pass compile spans (libquan, turnpike opts, scale %d)"
       scale);
  let bench = List.hd (Suite.find_by_name "libquan") in
  let prog = bench.Suite.build ~scale in
  let opts = Scheme.compile_opts Scheme.turnpike ~sb_size:4 in
  let tel = Telemetry.create () in
  ignore (Turnpike_compiler.Pass_pipeline.compile ~opts ~tel prog);
  let spans =
    List.filter
      (fun (e : Telemetry.event) -> String.equal e.Telemetry.cat "compiler")
      (Telemetry.events tel)
  in
  let cols =
    Report.[ { title = "pass"; width = 26 }; { title = "us"; width = 8 };
             { title = "stat deltas"; width = 44 } ]
  in
  Report.print_header cols;
  List.iter
    (fun (e : Telemetry.event) ->
      let dur = match e.Telemetry.kind with Telemetry.Complete d -> d | _ -> 0 in
      let deltas =
        String.concat " "
          (List.map
             (fun (k, v) ->
               match v with
               | Telemetry.Int i -> Printf.sprintf "%s%+d" k i
               | _ -> k)
             e.Telemetry.args)
      in
      Report.print_row cols [ e.Telemetry.name; string_of_int dur; deltas ])
    spans;
  Printf.printf "%d pass spans (pipeline declares %d passes)\n" (List.length spans)
    (List.length (Turnpike_compiler.Pass_pipeline.pass_names opts));

  Report.section "Profile: pool utilization (fig19 grid)";
  let pool_tel = Telemetry.create ~capacity:65536 () in
  Turnpike_parallel.set_telemetry pool_tel;
  ignore (E.fig19 ~params:!params ());
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

let int_flag flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "%s expects a number, got %s" flag v)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse sel args =
    (* The shared campaign flags (--seed/--faults/--ci/--confidence/
       --batch/--jobs) are recognized by the one spec in Campaign_args. *)
    match Turnpike.Campaign_args.consume !campaign args with
    | Some (updated, rest) ->
      campaign := updated;
      Turnpike.Campaign_args.apply_jobs updated;
      parse sel rest
    | None -> (
      match args with
      | [] -> List.rev sel
      | "--scale" :: n :: rest ->
        params := { !params with Run.scale = int_flag "--scale" n };
        parse sel rest
      | "--fuel" :: n :: rest ->
        params := { !params with Run.fuel = int_flag "--fuel" n };
        parse sel rest
      | "--csv" :: dir :: rest ->
        make_dir dir;
        csv_dir := Some dir;
        parse sel rest
      | "--profile" :: rest ->
        profile ();
        parse sel rest
      | x :: rest when List.mem_assoc x experiments -> parse (x :: sel) rest
      | x :: _ ->
        Printf.eprintf
          "unknown argument %s; known: %s --scale N --fuel N %s --profile \
           --csv DIR\n"
          x
          (String.concat " " (List.map fst experiments))
          Turnpike.Campaign_args.usage;
        exit 2)
  in
  let selected = try parse [] args with Failure msg -> Printf.eprintf "%s\n" msg; exit 2 in
  let selected =
    if selected = [] && not (List.mem "--profile" args)
    then List.map fst experiments
    else selected
  in
  (* fig14 and fig15 share a driver; avoid printing it twice. *)
  let selected =
    if List.mem "fig14" selected && List.mem "fig15" selected then
      List.filter (fun s -> s <> "fig15") selected
    else selected
  in
  List.iter (fun name -> (List.assoc name experiments) ()) selected
