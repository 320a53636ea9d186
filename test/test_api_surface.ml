(* Coverage for API surface not exercised elsewhere: machine presets,
   run-driver bookkeeping, CSV export, report formatting, prog validation,
   recovery-expression utilities, and assorted edge cases. *)

open Turnpike_ir
module Machine = Turnpike_arch.Machine
module BP = Turnpike_arch.Branch_predictor
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Machine presets *)

let test_machine_presets () =
  check "baseline has verification off" false Machine.baseline.Machine.verification;
  let ts = Machine.turnstile ~wcdl:20 () in
  check "turnstile verifies" true ts.Machine.verification;
  check "turnstile has no clq" true (ts.Machine.clq = None);
  check "turnstile has no coloring" false ts.Machine.coloring;
  let tp = Machine.turnpike ~wcdl:20 () in
  check "turnpike has clq" true (tp.Machine.clq <> None);
  check "turnpike has coloring" true tp.Machine.coloring

(* ------------------------------------------------------------------ *)
(* Branch predictor unit behaviour *)

let test_predictor_basics () =
  let p = BP.create ~entries:16 () in
  check "initial weakly taken" true (BP.predict p ~pc:3);
  check "first taken correct" true (BP.update p ~pc:3 ~taken:true);
  check "not-taken mispredicts" false (BP.update p ~pc:3 ~taken:false);
  (* Saturate toward not-taken. *)
  ignore (BP.update p ~pc:3 ~taken:false);
  ignore (BP.update p ~pc:3 ~taken:false);
  check "trained to not-taken" false (BP.predict p ~pc:3);
  check_int "lookups counted" 4 (BP.lookups p)

let test_predictor_aliasing_isolated () =
  let p = BP.create ~entries:4 () in
  (* pcs 1 and 5 alias (mod 4): training one affects the other — but pcs
     1 and 2 do not. *)
  ignore (BP.update p ~pc:1 ~taken:false);
  ignore (BP.update p ~pc:1 ~taken:false);
  check "pc 2 unaffected" true (BP.predict p ~pc:2);
  check "pc 5 aliases pc 1" false (BP.predict p ~pc:5)

let test_predictor_invalid () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Branch_predictor.create: entries must be a positive power of two")
    (fun () -> ignore (BP.create ~entries:48 ()))

(* ------------------------------------------------------------------ *)
(* Prog validation *)

let test_prog_validate () =
  let f = Func.create ~name:"v" ~entry:"a" [ Block.create "a" ] in
  let ok = Prog.create ~mem_init:[ (Layout.data_base, 5) ] ~reg_init:[ (3, 7) ] f in
  Alcotest.(check (list string)) "clean program" [] (Prog.validate ok);
  let bad_align = Prog.create ~mem_init:[ (Layout.data_base + 3, 5) ] f in
  check "misaligned image flagged" true (List.length (Prog.validate bad_align) = 1);
  let bad_reg = Prog.create ~reg_init:[ (Reg.zero, 1) ] f in
  check "zero-reg input flagged" true (List.length (Prog.validate bad_reg) = 1)

(* ------------------------------------------------------------------ *)
(* Recovery expressions *)

let test_expr_utilities () =
  let e =
    Recovery_expr.Select
      ( Recovery_expr.Slot 1,
        Recovery_expr.Op (Instr.Add, Recovery_expr.Slot 2, Recovery_expr.Const 4),
        Recovery_expr.Const 9 )
  in
  Alcotest.(check (list int)) "slots collected" [ 1; 2 ] (Recovery_expr.slots e);
  check_int "depth" 3 (Recovery_expr.depth e);
  check "printable" true (String.length (Recovery_expr.to_string e) > 0);
  let read_slot r = r * 10 in
  check_int "select taken" 24 (Recovery_expr.eval ~read_slot e);
  let e0 = Recovery_expr.Select (Recovery_expr.Const 0, Recovery_expr.Const 1, Recovery_expr.Const 2) in
  check_int "select fallthrough" 2 (Recovery_expr.eval ~read_slot e0)

(* ------------------------------------------------------------------ *)
(* CSV export *)

let test_csv_roundtrip () =
  let path = Filename.temp_file "turnpike_csv" ".csv" in
  Turnpike.Csv_export.table ~path
    Turnpike.Report.[ str "a" 0 fst; str "b" 0 snd ]
    [ ("1", "2"); ("3", "4") ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "contents" [ "a,b"; "1,2"; "3,4" ] lines

let test_csv_experiment_renderers () =
  let dir = Filename.temp_file "turnpike_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let p n = Filename.concat dir n in
  Turnpike.Csv_export.table ~path:(p "f18.csv") Turnpike.Experiments.fig18_columns
    (Turnpike.Experiments.fig18 ());
  check "fig18 written" true (Sys.file_exists (p "f18.csv"));
  Turnpike.Csv_export.table ~path:(p "empty.csv")
    (Turnpike.Experiments.wcdl_sweep_columns []) [];
  check "empty sweep writes nothing" false (Sys.file_exists (p "empty.csv"));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Report formatting *)

let test_report_formatting () =
  Alcotest.(check string) "overhead format" "1.234" (Turnpike.Report.fmt_overhead 1.2341);
  Alcotest.(check string) "pct format" "12.50%" (Turnpike.Report.fmt_pct 12.5)

(* ------------------------------------------------------------------ *)
(* Run.params: the single run-configuration record. Runs derived with
   [{ params with ... }] must agree with runs of an identical literal, and
   normalization must be reproducible (cache-independent). *)

let test_run_params_record () =
  let module Run = Turnpike.Run in
  let d = Run.default_params in
  check_int "default scale" Run.default_scale d.Run.scale;
  check_int "default fuel" Run.default_fuel d.Run.fuel;
  check_int "default wcdl" 10 d.Run.wcdl;
  check_int "default sb" 4 d.Run.sb_size;
  check_int "default baseline sb" 4 d.Run.baseline_sb;
  let b = List.hd (Suite.find_by_name "libquan") in
  let p = { d with Run.scale = 1; wcdl = 20 } in
  let r_rec = Run.run_with p Turnpike.Scheme.turnpike b in
  let r_lit =
    Run.run_with
      {
        Run.scale = 1;
        fuel = Run.default_fuel;
        wcdl = 20;
        sb_size = 4;
        baseline_sb = 4;
      }
      Turnpike.Scheme.turnpike b
  in
  check "derived and literal params agree" true (r_rec.Run.stats = r_lit.Run.stats);
  let ov1, _ = Run.normalized_with p Turnpike.Scheme.turnstile b in
  Run.clear_cache ();
  let ov2, _ = Run.normalized_with p Turnpike.Scheme.turnstile b in
  check "normalization reproducible across cache clear" true (ov1 = ov2)

(* ------------------------------------------------------------------ *)
(* Verifier.outcome: the exposed per-fault classification. *)

let test_verifier_outcome_surface () =
  let module Run = Turnpike.Run in
  let module V = Turnpike_resilience.Verifier in
  let module Fault = Turnpike_resilience.Fault in
  let b = List.hd (Suite.find_by_name "libquan") in
  let c = Run.compile_with { Run.default_params with Run.scale = 1 } Turnpike.Scheme.turnpike b in
  let fault = Fault.single_bit ~at_step:500 ~reg:2 ~bit:3 in
  (match V.run_one ~golden:c.Run.final ~compiled:c.Run.compiled fault with
  | V.Recovered { detections; reexec_overhead } ->
    check "recovered run was detected" true (detections <> []);
    check "reexec overhead non-negative" true (reexec_overhead >= 0.0)
  | V.Sdc _ | V.Crashed _ -> Alcotest.fail "expected Recovered");
  let rep = V.reduce [ V.Crashed { reason = "synthetic" } ] in
  check_int "crash counted" 1 rep.V.crashed;
  check "no recovered runs -> 0.0 mean, not nan" true
    (rep.V.mean_reexec_overhead = 0.0)

(* ------------------------------------------------------------------ *)
(* Run-driver bookkeeping *)

let run_libquan () =
  let module Run = Turnpike.Run in
  let b = List.hd (Suite.find_by_name "libquan") in
  Run.run_with
    { Run.default_params with Run.scale = 1; wcdl = 10 }
    Turnpike.Scheme.turnpike b

let test_run_stats_accessors () =
  let r = run_libquan () in
  let s = r.Turnpike.Run.stats in
  let module S = Turnpike_arch.Sim_stats in
  check "ipc positive" true (S.ipc s > 0.0);
  check_int "sb_writes = stores + ckpts" (s.S.stores + s.S.ckpts) (S.sb_writes s);
  check_int "fast = wf + colored" (s.S.war_free_released + s.S.colored_released)
    (S.fast_released s);
  check "war-free ratio in [0,1]" true (S.war_free_ratio s >= 0.0 && S.war_free_ratio s <= 1.0);
  check "stats printable" true (String.length (S.to_string s) > 0);
  check "static stats printable" true
    (String.length (Turnpike_compiler.Static_stats.to_string r.Turnpike.Run.static_stats) > 0)

let test_sim_stats_json () =
  let r = run_libquan () in
  let j = Turnpike_arch.Sim_stats.to_json r.Turnpike.Run.stats in
  check "starts as object" true (j.[0] = '{' && j.[String.length j - 1] = '}');
  let contains sub =
    let n = String.length sub and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
    go 0
  in
  check "has cycles" true (contains "\"cycles\":");
  check "has partition violations" true (contains "\"partition_violations\":");
  check "has complete" true (contains "\"complete\":true")

let test_suite_descriptions_nonempty () =
  List.iter
    (fun b ->
      check (b.Suite.name ^ " described") true (String.length b.Suite.description > 0))
    (Suite.all ())

let tests =
  [
    ("machine presets", `Quick, test_machine_presets);
    ("branch predictor basics", `Quick, test_predictor_basics);
    ("branch predictor aliasing", `Quick, test_predictor_aliasing_isolated);
    ("branch predictor invalid args", `Quick, test_predictor_invalid);
    ("prog validation", `Quick, test_prog_validate);
    ("recovery expression utilities", `Quick, test_expr_utilities);
    ("csv write roundtrip", `Quick, test_csv_roundtrip);
    ("csv experiment renderers", `Quick, test_csv_experiment_renderers);
    ("report formatting", `Quick, test_report_formatting);
    ("Run.params record form", `Quick, test_run_params_record);
    ("Verifier.outcome surface", `Quick, test_verifier_outcome_surface);
    ("run stats accessors", `Quick, test_run_stats_accessors);
    ("sim stats json", `Quick, test_sim_stats_json);
    ("suite descriptions", `Quick, test_suite_descriptions_nonempty);
  ]
