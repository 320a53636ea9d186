(* Tests for the sweep API and the design-space explorer: Pareto
   dominance on crafted vectors, grid construction, the shared campaign
   arg spec, determinism of the explorer at different job counts, and the
   golden-CSV guarantee that the Sweep refactor of the WCDL/CLQ figures
   did not move a byte of their output. *)

module Sweep = Turnpike.Sweep
module Pareto = Turnpike.Pareto
module DP = Turnpike.Design_point
module Explore = Turnpike.Explore
module CA = Turnpike.Campaign_args
module E = Turnpike.Experiments
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Parallel = Turnpike_parallel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pareto dominance on crafted vectors. *)

let test_dominates () =
  check "strictly better on every axis" true
    (Pareto.dominates [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  check "better on one axis, tied on the other" true
    (Pareto.dominates [| 1.0; 2.0 |] [| 2.0; 2.0 |]);
  check "equal points do not dominate" false
    (Pareto.dominates [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  check "trade-off does not dominate" false
    (Pareto.dominates [| 1.0; 3.0 |] [| 2.0; 2.0 |]);
  check "worse never dominates" false
    (Pareto.dominates [| 2.0; 2.0 |] [| 1.0; 2.0 |]);
  check "single axis: smaller wins" true (Pareto.dominates [| 1.0 |] [| 2.0 |]);
  check "NaN axis blocks domination" false
    (Pareto.dominates [| nan; 1.0 |] [| 2.0; 2.0 |]);
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Pareto.dominates: objective vectors differ in length")
    (fun () -> ignore (Pareto.dominates [| 1.0 |] [| 1.0; 2.0 |]))

let id_obj (v : float array) = v

let test_frontier () =
  (* (1,3) and (3,1) trade off; (2,2) trades off with both; (4,4) is
     dominated by all of them. *)
  let pts = [ [| 1.0; 3.0 |]; [| 4.0; 4.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] ] in
  check "frontier drops only the dominated point" true
    (Pareto.frontier ~objectives:id_obj pts
    = [ [| 1.0; 3.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] ]);
  (* Duplicates of a non-dominated point survive together (neither is
     strictly better), and input order is preserved. *)
  let dup = [ [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 0.5 |] ] in
  check "equal points both kept" true
    (Pareto.frontier ~objectives:id_obj dup = dup);
  (* Single-axis domination: only the minimum survives. *)
  check "single axis keeps the minimum" true
    (Pareto.frontier ~objectives:id_obj [ [| 3.0 |]; [| 1.0 |]; [| 2.0 |] ]
    = [ [| 1.0 |] ])

(* ------------------------------------------------------------------ *)
(* Sweep axes and design grids. *)

let test_axis () =
  Alcotest.check_raises "empty axis rejected"
    (Invalid_argument "Sweep.axis wcdl: empty value list") (fun () ->
      ignore (Sweep.ints ~name:"wcdl" []));
  let a = Sweep.ints ~name:"wcdl" [ 10; 20 ] in
  check "values kept in order" true (a.Sweep.values = [ 10; 20 ]);
  Alcotest.(check string) "int show" "20" (a.Sweep.show 20);
  check_int "wcdl figures sweep the paper's five latencies" 5
    (List.length E.wcdl_axis.Sweep.values);
  check "clq axis labels" true
    (List.map E.clq_axis.Sweep.show E.clq_axis.Sweep.values
    = [ "ideal"; "compact2" ])

let test_grid_enumeration () =
  let pts = DP.grid DP.tiny_spec in
  check_int "tiny grid size" 4 (List.length pts);
  (* Cores-major, rungs-minor: the canonical order of explorer artifacts. *)
  check "enumeration order" true
    (List.map DP.id pts
    = [
        "inorder/sb4/clq2/cb2/s300/turnstile"; "inorder/sb4/clq2/cb2/s300/turnpike";
        "ooo/sb4/clq2/cb2/s300/turnstile"; "ooo/sb4/clq2/cb2/s300/turnpike";
      ]);
  check_int "default grid size" 64 (List.length (DP.grid DP.default_spec));
  check_int "wide grid size" 486 (List.length (DP.grid DP.wide_spec));
  check "unknown grid name rejected" true
    (Result.is_error (DP.spec_of_string "nope"))

let test_design_point_lowering () =
  let p =
    {
      DP.core = DP.In_order;
      sb_entries = 8;
      clq_entries = 2;
      color_bits = 2;
      sensors = 300;
      rung = Scheme.turnpike;
    }
  in
  check_int "300 sensors at 2.5GHz is the paper's 10-cycle WCDL" 10 (DP.wcdl p);
  (match DP.machine_model p with
  | DP.Machine_model.In_order m ->
    check_int "sb" 8 m.Scheme.Machine.sb_size;
    check_int "color pool from bits" 4 m.Scheme.Machine.colors;
    check "coloring on" true m.Scheme.Machine.coloring
  | DP.Machine_model.Out_of_order _ -> Alcotest.fail "expected in-order");
  let off = DP.machine_model { p with DP.color_bits = 0 } in
  (match off with
  | DP.Machine_model.In_order m -> check "0 bits disables coloring" false m.Scheme.Machine.coloring
  | DP.Machine_model.Out_of_order _ -> Alcotest.fail "expected in-order");
  let rc = DP.recovery_config p ~fuel:1000 in
  check_int "campaign verify delay is the WCDL" 10
    rc.DP.Recovery.verify_delay;
  check "campaign coloring mirrors bits" true rc.DP.Recovery.coloring

(* ------------------------------------------------------------------ *)
(* Shared campaign arg spec. *)

let test_campaign_args () =
  let t = CA.default in
  (match CA.consume t [ "--seed"; "3"; "rest" ] with
  | Some (t', [ "rest" ]) -> check_int "seed parsed" 3 t'.CA.seed
  | _ -> Alcotest.fail "--seed not consumed");
  (match CA.consume t [ "--ci"; "0.01"; "--batch"; "8" ] with
  | Some (t', rest) ->
    check "ci parsed" true (t'.CA.ci = Some 0.01);
    (match CA.consume t' rest with
    | Some (t'', []) -> check_int "batch parsed" 8 t''.CA.batch
    | _ -> Alcotest.fail "--batch not consumed")
  | _ -> Alcotest.fail "--ci not consumed");
  check "unknown flag left to the caller" true
    (CA.consume t [ "--scale"; "4" ] = None);
  check "--forensics is not a campaign flag" true
    (CA.consume t [ "--forensics" ] = None);
  check "no stopping without --ci" true (CA.stopping t = None);
  (match CA.stopping { t with CA.ci = Some 0.02; confidence = 0.9; batch = 16 } with
  | Some s ->
    let module V = Turnpike_resilience.Verifier in
    check "half width" true (s.V.half_width = 0.02);
    check "confidence" true (s.V.confidence = 0.9);
    check_int "batch" 16 s.V.batch
  | None -> Alcotest.fail "expected a stopping rule");
  (try
     ignore (CA.consume t [ "--seed"; "x" ]);
     Alcotest.fail "malformed value accepted"
   with Failure _ -> ());
  (* Out-of-range values fail where they are parsed, naming the flag. *)
  List.iter
    (fun args ->
      let flag = List.hd args in
      match CA.consume t args with
      | _ -> Alcotest.fail (flag ^ " out of range accepted")
      | exception Failure msg ->
        check (flag ^ " named") true (String.starts_with ~prefix:flag msg))
    [ [ "--ci"; "0" ]; [ "--ci"; "nan" ]; [ "--confidence"; "1" ]; [ "--batch"; "0" ] ]

(* ------------------------------------------------------------------ *)
(* Explorer: determinism across job counts, one rung, validation. *)

let explore_params = { Run.default_params with Run.scale = 1; fuel = 20_000 }

let run_tiny ?forensics () =
  Explore.run ?forensics ~seed:7 ~params:explore_params ~spec:DP.tiny_spec ()

let test_explore_deterministic_across_jobs () =
  let saved = Parallel.effective_jobs () in
  Parallel.set_default_jobs 1;
  let r1 = run_tiny () and f1 = run_tiny ~forensics:true () in
  Parallel.set_default_jobs 4;
  let r4 = run_tiny () and f4 = run_tiny ~forensics:true () in
  Parallel.set_default_jobs saved;
  check "reports identical at jobs 1 vs 4" true (r1 = r4);
  (* With forensics, campaigns record lifecycles on pool workers: the
     rollups must not depend on the job count, and stripping them must
     give back the plain run's report. *)
  check "forensics reports identical at jobs 1 vs 4" true (f1 = f4);
  check "forensics run carries rollups" true
    (List.exists (fun p -> p.Explore.forensics <> None) f1.Explore.results);
  let strip r =
    let strip = List.map (fun p -> { p with Explore.forensics = None }) in
    { r with
      Explore.results = strip r.Explore.results;
      frontier = strip r.Explore.frontier }
  in
  check "forensics stripped = plain run" true (strip f1 = r1);
  (* Byte-level: the rendered CSV artifacts match too. *)
  let render r =
    let path = Filename.temp_file "explore" ".csv" in
    Turnpike.Csv_export.explore_grid ~path r;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  Alcotest.(check string) "grid CSV bytes identical" (render r1) (render r4)

let test_explore_frontier_validation () =
  let r = run_tiny () in
  check "every point evaluated once, at full scale" true
    (r.Explore.evals_per_budget = [ ("full", 4) ]);
  check "frontier is the Pareto frontier of every result" true
    (r.Explore.frontier
    = Pareto.frontier
        ~objectives:(fun p -> Explore.objective_vector p.Explore.objectives)
        r.Explore.results);
  (* Both turnpike points: the out-of-order one has the lowest overhead,
     the in-order one the lowest energy. *)
  Alcotest.(check (list string))
    "frontier points"
    [ "inorder/sb4/clq2/cb2/s300/turnpike"; "ooo/sb4/clq2/cb2/s300/turnpike" ]
    (List.map (fun p -> DP.id p.Explore.point) r.Explore.frontier);
  check "frontier re-validation reproduced objectives" true r.Explore.validated;
  check "sound schemes show no SDC" true
    (List.for_all
       (fun p -> p.Explore.objectives.Explore.sdc_rate = 0.0)
       r.Explore.results);
  check "same seed, same report" true (run_tiny () = r)

let test_explore_score_matches_batch () =
  let r = run_tiny () in
  let budget = Explore.full_budget explore_params in
  List.iter
    (fun p ->
      let o =
        Explore.score ~benches:(Explore.default_benches ()) ~budget ~seed:7
          p.Explore.point
      in
      check "re-scoring a point is bit-identical" true
        (o = p.Explore.objectives))
    r.Explore.results

(* ------------------------------------------------------------------ *)
(* Golden CSVs: the Sweep refactor of fig19/fig20/fig14_15 kept their
   CSV output byte-identical to the pre-refactor capture (committed under
   test/golden, generated at scale 1, fuel 20000, jobs 1). *)

let golden_params = { Run.default_params with Run.scale = 1; fuel = 20_000 }

let check_golden name render rows =
  let path = Filename.temp_file name ".csv" in
  render ~path rows;
  let got = Golden_file.read path in
  Sys.remove path;
  Alcotest.(check string)
    (name ^ " CSV byte-identical to pre-refactor golden")
    (Golden_file.read (Golden_file.path (name ^ ".csv")))
    got

let test_golden_fig19 () =
  check_golden "fig19" Turnpike.Csv_export.wcdl_sweep (E.fig19 ~params:golden_params ())

let test_golden_fig20 () =
  check_golden "fig20" Turnpike.Csv_export.wcdl_sweep (E.fig20 ~params:golden_params ())

let test_golden_fig14_15 () =
  check_golden "fig14_15" Turnpike.Csv_export.fig14_15
    (E.fig14_15 ~params:golden_params ())

(* Every simulated statistic of the sweep grid, pinned. The fig goldens
   above keep cycle ratios only, to six digits; this one hashes every
   [Sim_stats] field of one kernel's 13 points (baseline; turnstile and
   turnpike at each WCDL; OoO baseline and OoO turnstile) into one line,
   plus one line for libquan's enabled-telemetry timeline, whose event
   order depends on when the timing model settles background work. A
   change to the simulators that is meant to be invisible must leave
   test/golden/sim_stats.txt as it is. *)
module Suite = Turnpike_workloads.Suite
module Timing = Turnpike_arch.Timing
module Ooo_timing = Turnpike_arch.Ooo_timing
module Sim_stats = Turnpike_arch.Sim_stats

let md5 s = Digest.to_hex (Digest.string s)

let sim_stats_line bench =
  let p = golden_params in
  let trace s ~sb_size =
    (Run.compile_with { p with Run.sb_size } s bench).Run.trace
  in
  let inorder s ~wcdl ~sb_size tr =
    Timing.simulate (Scheme.machine s ~wcdl ~sb_size) tr
  in
  let tb = trace Scheme.baseline ~sb_size:p.Run.baseline_sb in
  let tt = trace Scheme.turnstile ~sb_size:p.Run.sb_size in
  let tp = trace Scheme.turnpike ~sb_size:p.Run.sb_size in
  let at s tr = List.map (fun wcdl -> inorder s ~wcdl ~sb_size:p.Run.sb_size tr) E.wcdls in
  let points =
    (inorder Scheme.baseline ~wcdl:p.Run.wcdl ~sb_size:p.Run.baseline_sb tb
    :: at Scheme.turnstile tt)
    @ at Scheme.turnpike tp
    @ [
        Ooo_timing.simulate Ooo_timing.default_config tb;
        Ooo_timing.simulate (Ooo_timing.turnstile_config ~wcdl:p.Run.wcdl ()) tt;
      ]
  in
  ( Suite.qualified_name bench,
    md5 (String.concat "\n" (List.map Sim_stats.to_json points)) )

let sim_stats_golden () =
  let libquan = List.hd (Suite.find_by_name "libquan") in
  let timeline = Turnpike.Timeline.capture ~jobs:1 ~params:golden_params libquan in
  List.map sim_stats_line (Suite.all ())
  @ [ ("timeline:" ^ Suite.qualified_name libquan, md5 (Turnpike.Timeline.jsonl timeline)) ]

let test_golden_sim_stats () =
  Golden_file.check_keyed ~file:"sim_stats.txt" ~what:"simulated statistics"
    (sim_stats_golden ())

(* Every explorer score on the default grid, pinned: one line per design
   point (scale 1, fuel 20000, seed 7, default benches) holding the four
   objectives in hex-float, the fault count and frontier membership. A
   change to how the explorer schedules its work must leave
   test/golden/explore.txt as it is. *)
let explore_golden () =
  let r = Explore.run ~seed:7 ~params:golden_params ~spec:DP.default_spec () in
  List.map
    (fun p ->
      let o = p.Explore.objectives in
      ( DP.id p.Explore.point,
        Printf.sprintf "%h %h %h %h %d %b" o.Explore.overhead o.Explore.area_um2
          o.Explore.energy_pj_per_kinstr o.Explore.sdc_rate o.Explore.faults
          p.Explore.on_frontier ))
    r.Explore.results

let test_golden_explore () =
  Golden_file.check_keyed ~file:"explore.txt" ~what:"explorer scores"
    (explore_golden ())

let tests =
  [
    Alcotest.test_case "pareto-dominates" `Quick test_dominates;
    Alcotest.test_case "pareto-frontier" `Quick test_frontier;
    Alcotest.test_case "sweep-axis" `Quick test_axis;
    Alcotest.test_case "grid-enumeration" `Quick test_grid_enumeration;
    Alcotest.test_case "design-point-lowering" `Quick test_design_point_lowering;
    Alcotest.test_case "campaign-args" `Quick test_campaign_args;
    Alcotest.test_case "explore-jobs-deterministic" `Slow
      test_explore_deterministic_across_jobs;
    Alcotest.test_case "explore-frontier-validation" `Slow
      test_explore_frontier_validation;
    Alcotest.test_case "explore-score-matches-batch" `Slow
      test_explore_score_matches_batch;
    Alcotest.test_case "golden-fig19" `Slow test_golden_fig19;
    Alcotest.test_case "golden-fig20" `Slow test_golden_fig20;
    Alcotest.test_case "golden-fig14-15" `Slow test_golden_fig14_15;
    Alcotest.test_case "golden-sim-stats" `Slow test_golden_sim_stats;
    Alcotest.test_case "golden-explore" `Slow test_golden_explore;
  ]
