(* Tests for the core library: schemes, the end-to-end run driver (and its
   trace cache), report helpers and the experiment drivers. These are the
   integration tests that tie compiler, simulator and workloads together
   and assert the paper's qualitative claims hold on this substrate. *)

module Scheme = Turnpike.Scheme
module Run = Turnpike.Run
module Report = Turnpike.Report
module E = Turnpike.Experiments
module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bench name = List.hd (Suite.find_by_name name)

let small = { Run.default_params with Run.scale = 1; fuel = 200_000 }

(* ------------------------------------------------------------------ *)
(* Schemes *)

let test_ladder_shape () =
  check_int "eight rungs (Fig 21)" 8 (List.length Scheme.ladder);
  let first = List.hd Scheme.ladder and last = List.nth Scheme.ladder 7 in
  Alcotest.(check string) "starts at turnstile" "turnstile" first.Scheme.name;
  Alcotest.(check string) "ends at turnpike" "turnpike" last.Scheme.name;
  check "turnstile has no hw features" true
    (first.Scheme.clq = None && not first.Scheme.coloring);
  check "turnpike has everything" true
    (last.Scheme.clq <> None && last.Scheme.coloring && last.Scheme.livm
    && last.Scheme.pruning && last.Scheme.licm && last.Scheme.sched
    && last.Scheme.store_aware_ra)

let test_scheme_machine_mapping () =
  let m = Scheme.machine Scheme.turnpike ~wcdl:30 ~sb_size:8 in
  check_int "wcdl" 30 m.Scheme.Machine.wcdl;
  check_int "sb" 8 m.Scheme.Machine.sb_size;
  check "verification on" true m.Scheme.Machine.verification;
  let b = Scheme.machine Scheme.baseline ~wcdl:30 ~sb_size:8 in
  check "baseline verification off" false b.Scheme.Machine.verification

let test_compile_keys_distinguish () =
  let keys =
    List.map (fun s -> Scheme.compile_key s ~sb_size:4) (Scheme.baseline :: Scheme.ladder)
  in
  (* Schemes differing only in hardware share compile keys (same binary),
     but every distinct compiler config gets a distinct key. *)
  check "war-free-checking shares turnstile binary" true
    (Scheme.compile_key Scheme.turnstile ~sb_size:4
    = Scheme.compile_key Scheme.war_free_checking ~sb_size:4);
  check "turnpike key differs from turnstile" true
    (Scheme.compile_key Scheme.turnpike ~sb_size:4
    <> Scheme.compile_key Scheme.turnstile ~sb_size:4);
  check_int "at least 7 distinct keys" 7
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Run driver *)

let p1 = { Run.default_params with Run.scale = 1 }

let test_run_baseline_sanity () =
  let r = Run.run_with p1 Scheme.baseline (bench "libquan") in
  check "cycles positive" true (r.Run.stats.Sim_stats.cycles > 0);
  check "complete" true r.Run.stats.Sim_stats.complete;
  check_int "baseline has no ckpts" 0 r.Run.stats.Sim_stats.ckpts;
  check_int "baseline has no regions" 0 r.Run.stats.Sim_stats.boundaries

let test_run_overhead_normalization () =
  let base = Run.run_with p1 Scheme.baseline (bench "libquan") in
  check "self overhead is 1" true (abs_float (Run.overhead ~baseline:base base -. 1.0) < 1e-9);
  let ov, _ = Run.normalized_with { p1 with Run.wcdl = 10 } Scheme.turnstile (bench "libquan") in
  check "turnstile overhead >= 1" true (ov >= 1.0)

let test_run_cache_consistency () =
  Run.clear_cache ();
  let a = Run.compile_with p1 Scheme.turnpike (bench "mcf") in
  let b = Run.compile_with p1 Scheme.turnpike (bench "mcf") in
  check "cache returns the same object" true (a == b);
  let c = Run.compile_with p1 Scheme.turnstile (bench "mcf") in
  check "different scheme, different compile" true (a != c)

let test_clear_cache_forces_recompile () =
  Run.clear_cache ();
  let a = Run.compile_with p1 Scheme.turnpike (bench "mcf") in
  Run.clear_cache ();
  let b = Run.compile_with p1 Scheme.turnpike (bench "mcf") in
  (* A fresh compilation produces fresh Static_stats (and a fresh pipeline
     value); a stale cache would hand back the very same objects. *)
  check "fresh compiled_run after clear" true (a != b);
  check "fresh Static_stats after clear" true
    (a.Run.compiled.Run.Pass_pipeline.stats
    != b.Run.compiled.Run.Pass_pipeline.stats);
  check "recompilation is deterministic" true
    (a.Run.compiled.Run.Pass_pipeline.stats
    = b.Run.compiled.Run.Pass_pipeline.stats)

let test_overhead_degenerate_baseline_raises () =
  (* A baseline that simulated zero cycles (empty/degenerate trace) used to
     silently report 1.0x overhead. It must raise instead. *)
  let real = Run.run_with p1 Scheme.turnpike (bench "libquan") in
  let degenerate =
    { real with Run.stats = Sim_stats.create (); scheme = "baseline" }
  in
  check_int "fabricated baseline has zero cycles" 0
    degenerate.Run.stats.Sim_stats.cycles;
  check "degenerate baseline raises" true
    (match Run.overhead ~baseline:degenerate real with
    | (_ : float) -> false
    | exception Run.Degenerate_baseline _ -> true);
  check "healthy baseline still divides" true
    (abs_float (Run.overhead ~baseline:real real -. 1.0) < 1e-9)

let test_turnpike_beats_turnstile_everywhere () =
  (* The paper's headline: Turnpike outperforms Turnstile on every
     benchmark (Fig 19 vs Fig 20). Allow half-percent simulator noise. *)
  List.iter
    (fun b ->
      let ts, _ = Run.normalized_with { p1 with Run.wcdl = 10 } Scheme.turnstile b in
      let tp, _ = Run.normalized_with { p1 with Run.wcdl = 10 } Scheme.turnpike b in
      check (Suite.qualified_name b ^ " turnpike <= turnstile") true (tp <= ts +. 0.005))
    (Suite.all ())

let test_overhead_grows_with_wcdl () =
  List.iter
    (fun name ->
      let ov w =
        fst (Run.normalized_with { p1 with Run.wcdl = w } Scheme.turnstile (bench name))
      in
      check (name ^ " monotonic-ish in wcdl") true (ov 10 <= ov 50 +. 0.005))
    [ "libquan"; "lbm"; "gcc"; "mcf" ]

let test_turnstile_improves_with_bigger_sb () =
  (* Fig 22: a larger store buffer relieves Turnstile. *)
  let ov sb =
    fst
      (Run.normalized_with
         { p1 with Run.wcdl = 10; sb_size = sb; baseline_sb = sb }
         Scheme.turnstile (bench "libquan"))
  in
  check "sb40 better than sb4" true (ov 40 <= ov 4 +. 0.005)

(* ------------------------------------------------------------------ *)
(* Report helpers *)

let test_geomean () =
  check "geomean of equal" true (abs_float (Report.geomean [ 2.0; 2.0 ] -. 2.0) < 1e-9);
  check "geomean 1,4 = 2" true (abs_float (Report.geomean [ 1.0; 4.0 ] -. 2.0) < 1e-9);
  check "empty is 0" true (Report.geomean [] = 0.0);
  check "arith mean" true (abs_float (Report.arith_mean [ 1.0; 3.0 ] -. 2.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Experiment drivers (small windows: shape checks only) *)

let test_fig4_shape () =
  let rows = E.fig4 ~params:small () in
  check_int "29 SPEC rows" 29 (List.length rows);
  let mean f = Report.arith_mean (List.map f rows) in
  let m40 = mean (fun (r : E.fig4_row) -> r.E.ratio_sb40) in
  let m4 = mean (fun (r : E.fig4_row) -> r.E.ratio_sb4) in
  check "smaller SB means more checkpoints" true (m4 >= m40)

let test_fig18_shape () =
  let rows = E.fig18 () in
  check "latency falls with sensors" true
    (let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
     last.E.dl_2_5ghz < first.E.dl_2_5ghz);
  List.iter
    (fun (r : E.fig18_row) ->
      check "faster clock, more cycles" true (r.E.dl_3_0ghz >= r.E.dl_2_0ghz))
    rows

let test_fig14_15_shape () =
  let rows = E.fig14_15 ~params:small () in
  check_int "36 rows" 36 (List.length rows);
  let g f = Report.geomean (List.map f rows) in
  let ovi = g (fun (r : E.clq_design_row) -> r.E.overhead_ideal) in
  let ovc = g (fun (r : E.clq_design_row) -> r.E.overhead_compact) in
  check "ideal CLQ never slower overall" true (ovi <= ovc +. 0.01);
  let wf_gap =
    List.exists
      (fun (r : E.clq_design_row) -> r.E.war_free_ideal > r.E.war_free_compact +. 0.01)
      rows
  in
  check "ideal detects more WAR-free somewhere (Fig 15)" true wf_gap

let test_fig21_ladder_monotonicity () =
  (* Adding optimizations never hurts the geomean. *)
  let rows = E.fig21 ~params:small () in
  check_int "36 rows" 36 (List.length rows);
  let g name =
    Report.geomean (List.map (fun (r : E.fig21_row) -> List.assoc name r.E.by_scheme) rows)
  in
  let names = List.map (fun (s : Scheme.t) -> s.Scheme.name) Scheme.ladder in
  let means = List.map g names in
  let rec pairwise = function
    | a :: (b :: _ as rest) -> (a, b) :: pairwise rest
    | _ -> []
  in
  List.iter
    (fun (a, b) -> check "ladder does not regress" true (b <= a +. 0.02))
    (pairwise means);
  check "turnstile worst, turnpike best" true
    (List.nth means 7 <= List.hd means)

let test_fig23_percentages () =
  let rows = E.fig23 ~params:small () in
  List.iter
    (fun (r : E.fig23_row) ->
      let total =
        r.E.pruned +. r.E.licm_eliminated +. r.E.colored +. r.E.war_free
        +. r.E.ra_eliminated +. r.E.ivm_eliminated +. r.E.others
      in
      check (r.E.bench ^ " categories stack to <=100%") true (total <= 100.5);
      check (r.E.bench ^ " categories non-negative") true
        (r.E.pruned >= 0.0 && r.E.others >= 0.0))
    rows

let test_fig24_clq_bounds () =
  let rows = E.fig24 ~params:small () in
  List.iter
    (fun (r : E.fig24_row) ->
      check (r.E.bench ^ " mean sane") true (r.E.mean_entries >= 0.0 && r.E.mean_entries <= 2.0);
      check (r.E.bench ^ " max within design") true (r.E.max_entries <= 2))
    rows

let test_fig26_region_sizes () =
  let rows = E.fig26 ~params:small () in
  List.iter
    (fun (r : E.fig26_row) ->
      check (r.E.bench ^ " region size positive") true (r.E.region_size > 1.0);
      check (r.E.bench ^ " region size sane") true (r.E.region_size < 64.0))
    rows

let test_table1_reproduces_paper () =
  let rows = E.table1 () in
  check_int "7 rows" 7 (List.length rows);
  let tp = List.nth rows 5 in
  check "turnpike ~10% of a 4-entry SB" true
    (tp.E.Cost_model.area_um2 > 9.0 && tp.E.Cost_model.area_um2 < 11.0)

let test_resilience_campaign_summary () =
  let rows = E.resilience ~params:small ~faults:4 () in
  check "campaign covers benchmarks" true (List.length rows >= 30);
  List.iter
    (fun (r : E.resilience_row) ->
      let rep = r.E.campaign.E.Verifier.report in
      check_int (r.E.bench ^ " zero SDC") 0 rep.E.Verifier.sdc;
      check_int (r.E.bench ^ " zero crashes") 0 rep.E.Verifier.crashed)
    rows

let tests =
  [
    ("ladder shape (Fig 21 configs)", `Quick, test_ladder_shape);
    ("scheme to machine mapping", `Quick, test_scheme_machine_mapping);
    ("compile keys distinguish binaries", `Quick, test_compile_keys_distinguish);
    ("run baseline sanity", `Quick, test_run_baseline_sanity);
    ("overhead normalization", `Quick, test_run_overhead_normalization);
    ("run cache consistency", `Quick, test_run_cache_consistency);
    ("clear_cache forces recompilation", `Quick, test_clear_cache_forces_recompile);
    ("degenerate baseline raises", `Quick, test_overhead_degenerate_baseline_raises);
    ("turnpike beats turnstile everywhere", `Slow, test_turnpike_beats_turnstile_everywhere);
    ("overhead grows with WCDL", `Quick, test_overhead_grows_with_wcdl);
    ("turnstile improves with bigger SB", `Quick, test_turnstile_improves_with_bigger_sb);
    ("report means", `Quick, test_geomean);
    ("fig4 shape", `Slow, test_fig4_shape);
    ("fig18 shape", `Quick, test_fig18_shape);
    ("fig14/15 shape", `Slow, test_fig14_15_shape);
    ("fig21 ladder monotonicity", `Slow, test_fig21_ladder_monotonicity);
    ("fig23 percentages", `Slow, test_fig23_percentages);
    ("fig24 CLQ bounds", `Slow, test_fig24_clq_bounds);
    ("fig26 region sizes", `Slow, test_fig26_region_sizes);
    ("table1 reproduces paper", `Quick, test_table1_reproduces_paper);
    ("resilience campaign summary", `Slow, test_resilience_campaign_summary);
  ]
