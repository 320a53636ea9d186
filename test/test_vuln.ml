(* Tests for the static ACE/AVF vulnerability analysis: the shared
   ranking tie-break and rank-correlation statistics, the registry
   wiring, the static drop-ckpt mutant conviction (mirroring PR 8's
   dynamic conviction) and the static-vs-dynamic agreement acceptance
   criterion over the whole suite. *)

open Turnpike_ir
module Analysis = Turnpike_analysis
module Rank = Turnpike_analysis.Rank
module Vuln = Turnpike_analysis.Vuln
module Forensics = Turnpike_resilience.Forensics
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-5))

let bench name = List.hd (Suite.find_by_name name)

(* ------------------------------------------------------------------ *)
(* The shared comparator *)

let test_key_compare () =
  let lt a b = check (a ^ " < " ^ b) true (Rank.key_compare a b < 0) in
  lt "b2:9" "b2:10";
  lt "r2" "r10";
  lt "3" "21";
  lt "9" "10";
  lt "alpha" "beta";
  check_int "equal keys" 0 (Rank.key_compare "r7" "r7");
  check "antisymmetric" true (Rank.key_compare "r10" "r2" > 0);
  (* leading zeros: same value, still a total order *)
  check "07 and 7 are ordered, not equal" true (Rank.key_compare "07" "7" <> 0);
  let sorted = List.sort Rank.key_compare [ "r10"; "r2"; "b:10"; "b:9" ] in
  check "natural sort" true (sorted = [ "b:9"; "b:10"; "r2"; "r10" ])

let test_shared_tie_break () =
  (* Equal-score rows must come out in the same key order from the
     dynamic and the static table sorters. *)
  let keys = [ "r10"; "b:10"; "r2"; "b:9"; "12"; "3" ] in
  let c0 = { Forensics.masked = 1; detected = 0; sdc = 0; crashed = 0 } in
  let dyn =
    Forensics.rank
      (List.map (fun key -> { Forensics.key; counts = c0 }) keys)
    |> List.map (fun (r : Forensics.row) -> r.Forensics.key)
  in
  let sta =
    Vuln.rank
      (List.map
         (fun key -> { Vuln.key; exposure = 1.0; score = 0.5 })
         keys)
    |> List.map (fun (r : Vuln.row) -> r.Vuln.key)
  in
  check "one tie-break for dynamic and static tables" true (dyn = sta);
  check "and it is the natural key order" true
    (dyn = List.sort Rank.key_compare keys)

(* ------------------------------------------------------------------ *)
(* Rank correlation *)

let test_spearman_hand_computed () =
  checkf "perfect agreement" 1.0
    (Rank.spearman [| 1.; 2.; 3.; 4. |] [| 10.; 20.; 30.; 40. |]);
  checkf "perfect reversal" (-1.0)
    (Rank.spearman [| 1.; 2.; 3.; 4. |] [| 4.; 3.; 2.; 1. |]);
  (* Ties: a = [1;2;2;4] has ranks [1;2.5;2.5;4]; against [1;2;3;4] the
     Pearson correlation of the rank vectors is 4.5/sqrt(4.5*5). *)
  checkf "tie-averaged ranks" 0.9486833
    (Rank.spearman [| 1.; 2.; 2.; 4. |] [| 1.; 2.; 3.; 4. |]);
  checkf "both constant" 1.0 (Rank.spearman [| 5.; 5. |] [| 7.; 7. |]);
  checkf "one constant" 0.0 (Rank.spearman [| 5.; 5. |] [| 1.; 2. |]);
  checkf "empty vectors" 1.0 (Rank.spearman [||] [||]);
  Alcotest.check_raises "length mismatch raises"
    (Invalid_argument "Rank.spearman: length mismatch") (fun () ->
      ignore (Rank.spearman [| 1. |] [| 1.; 2. |]))

let test_top_k_overlap_edges () =
  check "k larger than both lists clamps" true
    (Rank.top_k_overlap ~k:10 [ "a"; "b" ] [ "b"; "a" ] = (2, 2));
  check "empty lists" true (Rank.top_k_overlap ~k:5 [] [ "a" ] = (0, 0));
  check "k = 0" true (Rank.top_k_overlap ~k:0 [ "a" ] [ "a" ] = (0, 0));
  check "disjoint" true
    (Rank.top_k_overlap ~k:2 [ "a"; "b" ] [ "c"; "d" ] = (0, 2));
  check "partial" true
    (Rank.top_k_overlap ~k:2 [ "a"; "b"; "c" ] [ "b"; "d"; "a" ] = (1, 2))

let test_agreement_restricts_to_common_keys () =
  (* "z" only dynamic, "q" only static: both drop out before scoring. *)
  let rho, (hits, denom) =
    Rank.agreement ~k:3 [ "a"; "q"; "b"; "c" ] [ "a"; "b"; "z"; "c" ]
  in
  checkf "identical order on the intersection" 1.0 rho;
  check_int "all common keys in both top-k" 3 hits;
  check_int "denominator is the common-key count" 3 denom;
  let rho_rev, _ = Rank.agreement ~k:3 [ "a"; "b"; "c" ] [ "c"; "b"; "a" ] in
  checkf "reversal on the intersection" (-1.0) rho_rev;
  check "no common keys" true (Rank.agreement ~k:3 [ "a" ] [ "b" ] = (1.0, (0, 0)))

(* ------------------------------------------------------------------ *)
(* The analysis itself *)

let vuln_of ?(wcdl = 10) scheme name ~scale =
  let prog = (bench name).Suite.build ~scale in
  let opts = Turnpike.Scheme.compile_opts scheme ~sb_size:4 in
  let compiled = Pass_pipeline.compile ~opts prog in
  ( compiled,
    Vuln.compute
      (Analysis.Context.with_machine ~wcdl
         (Pass_pipeline.analysis_context compiled)) )

let test_compute_sanity () =
  let compiled, v = vuln_of Turnpike.Scheme.turnpike "mcf" ~scale:2 in
  check "regions ranked" true (v.Vuln.by_region <> []);
  check "registers ranked" true (v.Vuln.by_register <> []);
  check "sites ranked" true (v.Vuln.by_site <> []);
  check "windows computed" true (v.Vuln.windows <> []);
  check "positive mass" true (v.Vuln.total_mass > 0.0);
  check "predicted AVF positive" true (v.Vuln.predicted_avf > 0.0);
  check "clean build has no coverage gaps" true (v.Vuln.gaps = []);
  check_int "one row per region" (Array.length compiled.Pass_pipeline.regions)
    (List.length v.Vuln.by_region);
  (* tables come out ranked *)
  check "region table is ranked" true
    (Vuln.rank v.Vuln.by_region = v.Vuln.by_region);
  (* baseline (no regions) is empty *)
  let _, b = vuln_of Turnpike.Scheme.baseline "mcf" ~scale:2 in
  check "baseline has no vulnerability tables" true (b = Vuln.empty)

let test_wcdl_raises_escape () =
  (* A slower detector (larger WCDL) leaves wider escape windows: the
     predicted AVF must be monotone in the configured latency. *)
  let _, fast = vuln_of ~wcdl:2 Turnpike.Scheme.turnpike "mcf" ~scale:2 in
  let _, slow = vuln_of ~wcdl:100 Turnpike.Scheme.turnpike "mcf" ~scale:2 in
  check "larger WCDL, larger predicted AVF" true
    (slow.Vuln.predicted_avf > fast.Vuln.predicted_avf)

let test_registry_has_vuln () =
  check "vuln is a registered whole check" true
    (List.mem Vuln.name Analysis.Registry.names);
  let reads = Analysis.Registry.reads_of Vuln.name in
  check "declares the machine-params facet" true
    (Analysis.Facet.Set.mem Analysis.Facet.Machine_params reads);
  check "declares the claims facet" true
    (Analysis.Facet.Set.mem Analysis.Facet.Claims reads);
  check "declares boundary reads" true
    (Analysis.Facet.Set.mem Analysis.Facet.Boundaries reads)

let test_static_mutant_conviction () =
  (* Mirror of PR 8's dynamic conviction, with zero faults: dropping the
     checkpoints of a recoverable live-in must RAISE the static score of
     exactly the regions that lost coverage, and push one of them to the
     top of the static ranking. *)
  let prog = (bench "mcf").Suite.build ~scale:2 in
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnstile ~sb_size:4 in
  let c = Pass_pipeline.compile ~opts prog in
  (* force the "before" tables before the mutant rewrites blocks in place *)
  let before =
    Vuln.compute
      (Analysis.Context.with_machine ~wcdl:10 (Pass_pipeline.analysis_context c))
  in
  check "clean binary has no gaps" true (before.Vuln.gaps = []);
  match Forensics.drop_checkpoint_mutant c with
  | None -> Alcotest.fail "expected a checkpointed live-in victim"
  | Some (m, victim, affected) ->
    let after =
      Vuln.compute
        (Analysis.Context.with_machine ~wcdl:10
           (Pass_pipeline.analysis_context m))
    in
    check "mutant opens coverage gaps" true (after.Vuln.gaps <> []);
    check "every gap names the victim register" true
      (List.for_all (fun (_, _, r) -> Reg.equal r victim) after.Vuln.gaps);
    check "gap regions are the ground-truth affected set" true
      (List.for_all
         (fun (rid, _, _) -> List.mem rid affected)
         after.Vuln.gaps);
    let score_of (v : Vuln.t) rid =
      match
        List.find_opt
          (fun (r : Vuln.row) -> r.Vuln.key = string_of_int rid)
          v.Vuln.by_region
      with
      | Some r -> r.Vuln.score
      | None -> 0.0
    in
    List.iter
      (fun rid ->
        check
          (Printf.sprintf "region %d static score raised by the mutant" rid)
          true
          (score_of after rid > score_of before rid))
      affected;
    (match after.Vuln.by_region with
    | top :: _ ->
      check "top-ranked static region is a victim region" true
        (List.mem top.Vuln.key (List.map string_of_int affected))
    | [] -> Alcotest.fail "no static region table");
    let reg_score (v : Vuln.t) =
      match
        List.find_opt
          (fun (r : Vuln.row) -> r.Vuln.key = Reg.to_string victim)
          v.Vuln.by_register
      with
      | Some r -> r.Vuln.score
      | None -> 0.0
    in
    check "victim register's static score raised by the mutant" true
      (reg_score after > reg_score before);
    check "mutant raises the predicted AVF" true
      (after.Vuln.predicted_avf > before.Vuln.predicted_avf)

let test_vuln_report_jobs_invariant () =
  let benches = [ bench "mcf" ] in
  let schemes = [ Turnpike.Scheme.turnstile; Turnpike.Scheme.turnpike ] in
  let r1 = Turnpike.Lint.run_vuln ~scale:2 ~jobs:1 ~schemes benches in
  let r4 = Turnpike.Lint.run_vuln ~scale:2 ~jobs:4 ~schemes benches in
  check_str "vuln json identical at jobs 1 and 4"
    (Turnpike.Lint.vuln_to_json r1)
    (Turnpike.Lint.vuln_to_json r4);
  check_str "vuln text identical at jobs 1 and 4"
    (Turnpike.Lint.vuln_to_text r1)
    (Turnpike.Lint.vuln_to_text r4)

let test_vuln_independent_of_check_mode () =
  (* The static tables are a pure function of the compiled binary: turning
     the soundness checks on (whole-program or per pass) must not move a
     single window, row or score. *)
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
  List.iter
    (fun b ->
      let prog = b.Suite.build ~scale:2 in
      let vuln check =
        Vuln.compute
          (Analysis.Context.with_machine ~wcdl:10
             (Pass_pipeline.analysis_context
                (Pass_pipeline.compile ~opts ~check prog)))
      in
      let off = vuln Pass_pipeline.Off in
      let name = Suite.qualified_name b in
      check (name ^ ": Final = Off") true (vuln Pass_pipeline.Final = off);
      check (name ^ ": PerPass = Off") true (vuln Pass_pipeline.PerPass = off))
    (Suite.all ())

let test_vuln_csv_missing_columns () =
  (* The writers reuse the sweep exports' missing-column tolerance: a
     key one scheme never ranks renders "nan", never loses the file. *)
  let rows =
    [
      { Turnpike.Lint.vr_benchmark = "b1"; vr_key = "0";
        vr_by_scheme = [ ("alpha", 1.0); ("beta", 2.0) ] };
      { Turnpike.Lint.vr_benchmark = "b1"; vr_key = "9";
        vr_by_scheme = [ ("alpha", 0.5) ] };
    ]
  in
  let path = Filename.temp_file "vuln" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Turnpike.Csv_export.vuln_table ~path rows;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ header; row0; row9 ] ->
        check_str "columns collected across all rows" "benchmark,key,alpha,beta"
          header;
        check_str "full row" "b1,0,1.000000,2.000000" row0;
        check_str "missing scheme cell renders nan" "b1,9,0.500000,nan" row9
      | ls ->
        Alcotest.fail
          (Printf.sprintf "expected 3 csv lines, got %d" (List.length ls)))

(* ------------------------------------------------------------------ *)
(* Acceptance: static ranking predicts the dynamic forensics ranking *)

let test_static_predicts_dynamic_regions () =
  (* Over the whole suite at scale 2: CI-stopped campaigns (fixed seed)
     give the dynamic region ranking; the static region ranking must
     agree with Spearman >= 0.6 and top-5 overlap >= 3/5 (clamped to the
     common-key count) on at least 30 of the 36 benchmarks. *)
  let params =
    { Turnpike.Run.default_params with Turnpike.Run.scale = 2; fuel = 2_000_000 }
  in
  let stopping =
    { Verifier.half_width = 0.08; confidence = 0.95; batch = 16; min_faults = 96 }
  in
  let results =
    Turnpike_parallel.map_list
      (fun b ->
        let c = Turnpike.Run.compile_with params Turnpike.Scheme.turnpike b in
        let compiled = c.Turnpike.Run.compiled in
        let v =
          Vuln.compute
            (Analysis.Context.with_machine ~wcdl:10
               (Pass_pipeline.analysis_context compiled))
        in
        let faults = Injector.campaign ~seed:11 ~count:192 c.Turnpike.Run.trace in
        let plan = Snapshot.record compiled in
        let records, _ci =
          Forensics.campaign ~plan ~stopping ~golden:c.Turnpike.Run.final
            ~compiled faults
        in
        let s = Forensics.summarize records in
        let static_keys =
          List.map (fun (r : Vuln.row) -> r.Vuln.key) v.Vuln.by_region
        in
        let dynamic_keys =
          List.map (fun (r : Forensics.row) -> r.Forensics.key)
            s.Forensics.by_region
        in
        let rho, (hits, denom) =
          Rank.agreement ~k:5 static_keys dynamic_keys
        in
        let ok = rho >= 0.6 && hits >= min 3 denom in
        (Suite.qualified_name b, rho, hits, denom, ok))
      (Suite.all ())
  in
  let passed = List.filter (fun (_, _, _, _, ok) -> ok) results in
  let failed = List.filter (fun (_, _, _, _, ok) -> not ok) results in
  List.iter
    (fun (name, rho, hits, denom, _) ->
      Printf.printf "  static-vs-dynamic miss: %-16s spearman %+.3f overlap %d/%d\n"
        name rho hits denom)
    failed;
  check_int "whole suite measured" 36 (List.length results);
  check
    (Printf.sprintf "static ranking agrees on >= 30/36 benchmarks (got %d)"
       (List.length passed))
    true
    (List.length passed >= 30)

(* ------------------------------------------------------------------ *)
(* Lint golden for programs nobody wrote by hand: one line per fuzz seed
   0–199 and per committed regression in test/golden/lint_fuzz.txt, the
   MD5 over turnstile and turnpike (SB 4) of everything a lint decides —
   the per-pass diagnostics and check schedule, the registry on the
   scheme's machine context (as bench/perf's lint builds it), and the
   static vulnerability estimate on that context, windows and AVF bit
   for bit. *)

module Scheme = Turnpike.Scheme
module Machine = Turnpike_arch.Machine
module Clq = Turnpike_arch.Clq

let lint_digest prog =
  let one (s : Scheme.t) =
    let c =
      Pass_pipeline.compile ~opts:(Scheme.compile_opts s ~sb_size:4)
        ~check:Pass_pipeline.PerPass prog
    in
    let m = Scheme.machine s ~wcdl:10 ~sb_size:4 in
    let ctx =
      Analysis.Context.with_machine ~rbb_size:m.Machine.rbb_size
        ?clq_entries:
          (match m.Machine.clq with Some (Clq.Compact n) -> Some n | _ -> None)
        ~wcdl:m.Machine.wcdl
        (Pass_pipeline.analysis_context c)
    in
    let v = Vuln.compute ctx in
    let window (w : Vuln.window) =
      Printf.sprintf "%s:%d %s %d %h %h" w.Vuln.w_block w.Vuln.w_index
        (Reg.to_string w.Vuln.w_reg) w.Vuln.w_region w.Vuln.w_length
        w.Vuln.w_bypass
    in
    String.concat "\n"
      (List.map Analysis.Diag.to_json c.Pass_pipeline.diags
      @ List.map
          (fun (p, ran) -> p ^ ": " ^ String.concat "," ran)
          c.Pass_pipeline.check_log
      @ List.map Analysis.Diag.to_json (Analysis.Registry.run_whole ctx)
      @ [ Vuln.to_json v ]
      @ List.map window v.Vuln.windows
      @ [ Printf.sprintf "%h" v.Vuln.predicted_avf ])
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n====\n" (List.map one [ Scheme.turnstile; Scheme.turnpike ])))

let lint_golden_inputs () =
  let fuzz =
    List.init 200 (fun seed ->
        let src = Turnpike_frontend.Fuzz.generate ~seed in
        match
          Turnpike_frontend.Tk.compile_string
            ~file:(Printf.sprintf "<fuzz-%d>" seed) ~scale:1 src
        with
        | Ok prog -> (string_of_int seed, prog)
        | Error e -> Alcotest.failf "seed %d rejected: %s" seed e)
  in
  let regress =
    List.map
      (fun file ->
        let path = Filename.concat (Golden_file.find_dir "regress") file in
        match Turnpike_frontend.Tk.compile_file ~scale:1 path with
        | Ok prog -> (file, prog)
        | Error e -> Alcotest.failf "%s: %s" file e)
      [ "fuzz_1740.tk"; "fuzz_2173.tk"; "fuzz_6541.tk" ]
  in
  fuzz @ regress

let test_lint_golden () =
  let got =
    List.map (fun (key, prog) -> (key, lint_digest prog)) (lint_golden_inputs ())
  in
  Golden_file.check_keyed ~file:"lint_fuzz.txt" ~what:"lint results" got

let tests =
  [
    Alcotest.test_case "natural key comparator" `Quick test_key_compare;
    Alcotest.test_case "one tie-break, static and dynamic" `Quick
      test_shared_tie_break;
    Alcotest.test_case "spearman on hand-computed vectors" `Quick
      test_spearman_hand_computed;
    Alcotest.test_case "top-k overlap edge cases" `Quick
      test_top_k_overlap_edges;
    Alcotest.test_case "agreement restricts to common keys" `Quick
      test_agreement_restricts_to_common_keys;
    Alcotest.test_case "compute sanity on a real binary" `Quick
      test_compute_sanity;
    Alcotest.test_case "predicted AVF monotone in WCDL" `Quick
      test_wcdl_raises_escape;
    Alcotest.test_case "registered as the sixth whole check" `Quick
      test_registry_has_vuln;
    Alcotest.test_case "drop-ckpt mutant convicted statically" `Quick
      test_static_mutant_conviction;
    Alcotest.test_case "vuln report identical at any --jobs" `Quick
      test_vuln_report_jobs_invariant;
    Alcotest.test_case "vuln tables independent of check mode" `Quick
      test_vuln_independent_of_check_mode;
    Alcotest.test_case "csv writers tolerate missing columns" `Quick
      test_vuln_csv_missing_columns;
    Alcotest.test_case "lint of fuzz programs golden" `Quick test_lint_golden;
    Alcotest.test_case "static ranking predicts dynamic forensics" `Slow
      test_static_predicts_dynamic_regions;
  ]
