(* Command-line front end for the Turnpike reproduction.

   turnpike-cli list                          benchmark inventory
   turnpike-cli run -b mcf -s turnpike -w 30  compile + simulate one benchmark
   turnpike-cli trace -b mcf --timeline t.json  cycle-level Perfetto timeline
   turnpike-cli inject -b lbm -n 50           fault-injection campaign
   turnpike-cli report -b mcf --mutant drop-ckpt  forensic vulnerability ranking
   turnpike-cli lint -b mcf --per-pass        static resilience soundness check
   turnpike-cli compile k.tk --pipeline SPEC  compile a user .tk kernel
   turnpike-cli recovery -b libquan           dump generated recovery blocks
   turnpike-cli cost                          hardware cost table
   turnpike-cli wcdl -n 300 -f 2.5            sensor model query
   turnpike-cli explore --grid tiny           design-space Pareto frontier *)

open Cmdliner
module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
module Telemetry = Turnpike_telemetry

(* Real wall clock for compile-pass profiling spans; the telemetry library
   itself stays dependency-free with a Sys.time default. The deterministic
   [trace] exports never read this clock. *)
let () = Telemetry.Clock.set Unix.gettimeofday

let schemes =
  List.map (fun (s : Turnpike.Scheme.t) -> (s.Turnpike.Scheme.name, s))
    (Turnpike.Scheme.baseline :: Turnpike.Scheme.ladder)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List the 36 benchmark proxies and the available schemes." in
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun b ->
        Printf.printf "  %-18s %-14s %s\n" (Suite.qualified_name b)
          (Suite.suite_name b.Suite.suite) b.Suite.description)
      (Suite.all ());
    print_endline "\nschemes:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) schemes
  in
  Cmd.v (Cli.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

(* Flags of this front end alone; the ones it shares with bench/main.exe
   come from Cli. Each is checked when cmdliner evaluates it, before the
   command body runs. *)

let scheme_conv = Arg.enum schemes

let scheme_arg =
  Arg.(value & opt scheme_conv Turnpike.Scheme.turnpike
       & info [ "s"; "scheme" ] ~docv:"SCHEME"
           ~doc:"Resilience scheme (default turnpike).")

let wcdl_arg =
  Cli.checked ~flag:"--wcdl" ~expects:"a non-negative cycle count" (fun w -> w >= 0)
    string_of_int
    Arg.(value & opt int 10 & info [ "w"; "wcdl" ] ~docv:"CYCLES"
           ~doc:"Worst-case detection latency in cycles.")

let sb_arg =
  Cli.positive ~flag:"--sb" ~expects:"a positive entry count"
    Arg.(value & opt int 4 & info [ "sb" ] ~docv:"ENTRIES" ~doc:"Store-buffer entries.")

(* A workload is either a built-in proxy (by plain or suite-qualified
   name) or a user kernel: any argument ending in .tk is loaded through
   the frontend and wrapped as a Suite entry, so every subcommand works
   on user workloads unchanged. An unknown name, or a kernel that does not
   compile, exits 1 with its diagnostic. *)
let find_bench name =
  let found =
    if Turnpike_frontend.Tk.is_tk_file name then
      Turnpike_frontend.Tk.entry_of_file name
    else
      match List.find_opt (fun b -> Suite.qualified_name b = name) (Suite.all ()) with
      | Some b -> Ok b
      | None -> (
        match Suite.find_by_name name with
        | b :: _ -> Ok b
        | [] -> Error (Printf.sprintf "unknown benchmark %s" name))
  in
  match found with
  | Ok b -> b
  | Error e ->
    prerr_endline e;
    exit 1

let bench_info doc = Arg.info [ "b"; "benchmark" ] ~docv:"NAME" ~doc

let bench_arg =
  let doc =
    "Benchmark name (e.g. mcf, lbm); suite-qualified names like mcf@2017 \
     also work, as does a path to a .tk kernel file (see docs/LANGUAGE.md)."
  in
  Term.(const find_bench $ Arg.(required & opt (some string) None & bench_info doc))

(* Export destinations: a file, or stdout for "-". A file whose directory
   does not exist exits 1 naming the path, before any work; [write_output]
   reports any later write failure the same way. *)
let output_arg long ~doc =
  let check = function
    | Some path when path <> "-" ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "turnpike-cli: cannot write %s: no directory %s\n" path dir;
        exit 1
      end
    | _ -> ()
  in
  let arg = Arg.(value & opt (some string) None & info [ long ] ~docv:"FILE" ~doc) in
  Term.(const (fun dest -> check dest; dest) $ arg)

let write_output dest contents =
  match dest with
  | "-" -> print_string contents
  | path -> (
    try Telemetry.Export.to_file path contents
    with Sys_error msg ->
      (* open_out's message already leads with the path. *)
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix) (String.length msg - String.length prefix)
        else msg
      in
      Printf.eprintf "turnpike-cli: cannot write %s: %s\n" path reason;
      exit 1)

let forensics_arg =
  Arg.(
    value & flag
    & info [ "forensics" ]
        ~doc:
          "Record the per-fault forensic lifecycle (strike, taint use, \
           detection, rollback, re-execution, reconvergence) and attribute \
           vulnerability to static sites, registers and regions. Output is \
           byte-identical at any --jobs count and across snapshot-forked vs \
           --scratch replay.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON counters.")

let run_cmd =
  let doc = "Compile one benchmark under a scheme and simulate it." in
  let run () scheme wcdl sb scale json b =
    let ov, r =
      Turnpike.Run.normalized_with
        { Turnpike.Run.default_params with scale; wcdl; sb_size = sb }
        scheme b
    in
    if json then
      Printf.printf
        "{\"benchmark\":\"%s\",\"scheme\":\"%s\",\"wcdl\":%d,\"sb\":%d,\"overhead\":%.4f,\"stats\":%s,\"static_stats\":%s}\n"
        (Suite.qualified_name b) r.Turnpike.Run.scheme wcdl sb ov
        (Sim_stats.to_json r.Turnpike.Run.stats)
        (Turnpike_compiler.Static_stats.to_json r.Turnpike.Run.static_stats)
    else begin
      Printf.printf "%s under %s (WCDL=%d, SB=%d):\n" (Suite.qualified_name b)
        r.Turnpike.Run.scheme wcdl sb;
      Printf.printf "  normalized execution time: %.3fx\n" ov;
      Printf.printf "  %s\n" (Sim_stats.to_string r.Turnpike.Run.stats);
      Printf.printf "  static: %s\n"
        (Turnpike_compiler.Static_stats.to_string r.Turnpike.Run.static_stats)
    end
  in
  Cmd.v (Cli.info "run" ~doc)
    Term.(
      const run $ Cli.jobs $ scheme_arg $ wcdl_arg $ sb_arg $ Cli.scale
      $ json_arg $ bench_arg)

(* ------------------------------------------------------------------ *)

let trace_cmd =
  let doc =
    "Capture a cycle-level timeline of one benchmark across the full \
     ablation ladder and export it as Chrome trace-event JSON (loadable in \
     Perfetto / chrome://tracing) or JSONL. Events carry simulated cycles, \
     so the export is byte-identical at any --jobs count."
  in
  let timeline_arg =
    output_arg "timeline"
      ~doc:
        "Write the Chrome trace-event timeline to $(docv) ('-' for stdout). \
         One process per ladder rung; tracks: regions, stalls, verify \
         windows, store-buffer events, CLQ events."
  in
  let jsonl_arg =
    output_arg "jsonl" ~doc:"Also write the merged events as self-describing JSONL."
  in
  let run () wcdl sb scale b timeline jsonl =
    let params = { Turnpike.Run.default_params with scale; wcdl; sb_size = sb } in
    let t = Turnpike.Timeline.capture ~params b in
    Option.iter (fun dest -> write_output dest (Turnpike.Timeline.chrome t)) timeline;
    Option.iter (fun dest -> write_output dest (Turnpike.Timeline.jsonl t)) jsonl;
    Printf.printf "%s: %d events across %d schemes (wcdl=%d sb=%d)\n"
      t.Turnpike.Timeline.benchmark
      (List.length t.Turnpike.Timeline.events)
      (List.length t.Turnpike.Timeline.schemes)
      wcdl sb;
    List.iter2
      (fun s n -> Printf.printf "  %-24s %6d events\n" s n)
      t.Turnpike.Timeline.schemes t.Turnpike.Timeline.per_task;
    Printf.printf "  sensor config: %s\n" (Turnpike.Timeline.sensor_metadata t)
  in
  Cmd.v (Cli.info "trace" ~doc)
    Term.(
      const run $ Cli.jobs $ wcdl_arg $ sb_arg $ Cli.scale $ bench_arg
      $ timeline_arg $ jsonl_arg)

(* ------------------------------------------------------------------ *)

let inject_cmd =
  let doc =
    "Run a fault-injection campaign and verify SDC-freedom. Faults fan out \
     over the --jobs worker domains (one interpreter replay each); the \
     report is identical at any job count for a fixed --seed. By default \
     each fault forks from the snapshot of a fault-free pilot run nearest \
     its strike site (byte-identical to a from-scratch replay, at \
     O(suffix) cost); --scratch disables the snapshots. With --ci the \
     fixed fault count is replaced by sequential stopping: batches are \
     injected until the Wilson confidence interval on the SDC rate is \
     narrower than +/- WIDTH. --forensics records every fault's lifecycle \
     trace; --jsonl/--trace/--csv/--json export it (each implies \
     --forensics)."
  in
  let scratch_arg =
    Arg.(
      value & flag
      & info [ "scratch" ]
          ~doc:"Replay every fault from step 0 instead of forking from \
                pilot snapshots (same report, slower).")
  in
  let fjsonl_arg =
    output_arg "jsonl"
      ~doc:
        "Write the forensic lifecycle events (plus the Wilson trajectory \
         under --ci) as self-describing JSONL to $(docv) ('-' for stdout). \
         Implies --forensics."
  in
  let ftrace_arg =
    output_arg "trace"
      ~doc:
        "Write the forensic lifecycle as Chrome trace-event JSON (one \
         process per fault, loadable in Perfetto) to $(docv) ('-' for \
         stdout). Implies --forensics."
  in
  let fcsv_arg =
    Cli.csv
      ~doc:
        "Write forensics_faults.csv and the by-site / by-register / \
         by-region attribution tables under $(docv). Implies --forensics."
  in
  let fjson_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON report (summary plus per-fault \
             records with the fault draw and verdict) instead of text. \
             Implies --forensics.")
  in
  let run () faults seed scale scratch stopping forensics json b fjsonl ftrace
      fcsv =
    let forensics =
      forensics || fjsonl <> None || ftrace <> None || fcsv <> None || json
    in
    let c =
      Turnpike.Run.compile_with
        { Turnpike.Run.default_params with scale }
        Turnpike.Scheme.turnpike b
    in
    if not c.Turnpike.Run.trace.Turnpike_ir.Trace.complete then begin
      prerr_endline "trace truncated; lower --scale";
      exit 1
    end;
    let module V = Turnpike_resilience.Verifier in
    let module F = Turnpike_resilience.Forensics in
    let module Snapshot = Turnpike_resilience.Snapshot in
    let plan =
      if scratch then None else Some (Snapshot.record c.Turnpike.Run.compiled)
    in
    let campaign =
      Turnpike_resilience.Injector.campaign ~seed ~count:faults c.Turnpike.Run.trace
    in
    let golden = c.Turnpike.Run.final in
    let compiled = c.Turnpike.Run.compiled in
    (* The Wilson-trajectory sink sorts after every per-fault sink
       (task = fault supply size), so the merged export order is a
       total, jobs-independent order. *)
    let traj = Telemetry.create ~task:(List.length campaign) () in
    let records, r =
      if forensics then
        F.campaign ?plan ?stopping ~tel:traj ~golden ~compiled campaign
      else ([], V.run_campaign ?plan ?stopping ~golden ~compiled campaign)
    in
    let rep = r.V.report in
    if not json then begin
      Printf.printf
        "%s: %d faults -> %d recovered, %d SDC, %d crashed (parity %d, sensor %d)\n"
        (Suite.qualified_name b) rep.V.total rep.V.recovered rep.V.sdc
        rep.V.crashed rep.V.parity_detections rep.V.sensor_detections;
      Option.iter
        (fun (ci : V.ci) ->
          Printf.printf
            "  SDC rate %.4f in [%.4f, %.4f] at %g%% confidence (+/- %.4f, \
             %d batches%s)\n"
            ci.V.sdc_rate ci.V.ci_low ci.V.ci_high (100.0 *. ci.V.confidence)
            ci.V.achieved_half_width ci.V.batches
            (if ci.V.exhausted then "; fault supply exhausted" else ""))
        r.V.ci
    end;
    if forensics then begin
      let summary = F.summarize ~rung:"turnpike" records in
      let dropped = F.total_dropped records + Telemetry.dropped traj in
      if json then
        Printf.printf "{\"benchmark\":\"%s\",\"summary\":%s,\"faults\":[%s]}\n"
          (Suite.qualified_name b)
          (F.summary_to_json summary)
          (String.concat "," (List.map F.record_to_json records))
      else begin
        let cls = summary.F.by_class in
        Printf.printf
          "  forensics: %d/%d landed; masked %d, detected %d, sdc %d, \
           crashed %d\n"
          summary.F.landed summary.F.total cls.F.masked cls.F.detected
          cls.F.sdc cls.F.crashed;
        Printf.printf
          "  mean detect latency %.1f, mean rewind %.1f, dropped events %d\n"
          summary.F.mean_detect_latency summary.F.mean_rewind dropped
      end;
      let events = F.merged_events records @ Telemetry.events traj in
      Option.iter
        (fun dest -> write_output dest (Telemetry.Export.jsonl ~dropped events))
        fjsonl;
      Option.iter
        (fun dest -> write_output dest (Telemetry.Export.chrome ~dropped events))
        ftrace;
      Option.iter
        (fun dir ->
          Turnpike.Csv_export.forensics ~dir records summary;
          if not json then Printf.printf "[forensic csv written under %s]\n" dir)
        fcsv
    end;
    if rep.V.sdc > 0 || rep.V.crashed > 0 then exit 1
  in
  Cmd.v (Cli.info "inject" ~doc)
    Term.(
      const run $ Cli.jobs $ Cli.faults 30 $ Cli.seed $ Cli.scale $ scratch_arg
      $ Cli.stopping $ forensics_arg $ fjson_arg $ bench_arg $ fjsonl_arg
      $ ftrace_arg $ fcsv_arg)

(* ------------------------------------------------------------------ *)

let report_cmd =
  let module F = Turnpike_resilience.Forensics in
  let module R = Turnpike.Report in
  let module PP = Turnpike_compiler.Pass_pipeline in
  let doc =
    "Forensic vulnerability report over a fault campaign: run every fault \
     with a lifecycle trace, then rank static instruction sites, struck \
     registers and static regions by AVF-derated vulnerability (SDCs and \
     crashes over exposure). --mutant drop-ckpt first plants a known \
     compiler bug (delete every checkpoint of one recoverable live-in) so \
     the ranking can be checked against ground truth: the victim register \
     tops the table. Output is byte-identical at any --jobs count."
  in
  let top_arg =
    Cli.positive ~flag:"--top" ~expects:"a positive row count"
      Arg.(value & opt int 8 & info [ "top" ] ~docv:"N" ~doc:"Rows per attribution table.")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some (enum [ ("drop-ckpt", ()) ])) None
      & info [ "mutant" ] ~docv:"KIND"
          ~doc:
            "Plant a compiler bug before the campaign; the only $(docv) is \
             $(b,drop-ckpt) (delete every checkpoint of one recoverable \
             live-in register and wipe the claims).")
  in
  let csv_arg =
    Cli.csv ~doc:"Write the per-fault log and attribution tables under $(docv)."
  in
  let compare_static_arg =
    Arg.(
      value & flag
      & info [ "compare-static" ]
          ~doc:
            "Also run the static ACE/AVF vulnerability analysis on the same \
             binary (the mutant, when one is planted) and score how well its \
             ranked tables predict the campaign's: Spearman rank correlation \
             and top-K overlap per axis. No extra faults are injected.")
  in
  let run () scheme scale faults seed top mutant compare_static json b csv_dir =
    (* Compile outside the Run cache: the mutant rewrites block bodies in
       place, which must never leak into other commands' cached entries. *)
    let prog = b.Suite.build ~scale in
    let compiled =
      PP.compile ~opts:(Turnpike.Scheme.compile_opts scheme ~sb_size:4) prog
    in
    let rung = scheme.Turnpike.Scheme.name in
    let compiled, rung, victim =
      match mutant with
      | None -> (compiled, rung, None)
      | Some () -> (
        match F.drop_checkpoint_mutant compiled with
        | None ->
          prerr_endline "no region has a checkpointed recoverable live-in";
          exit 1
        | Some (m, v, affected) -> (m, rung ^ "+drop-ckpt", Some (v, affected)))
    in
    let module Interp = Turnpike_ir.Interp in
    let trace, golden =
      Interp.trace_run ~fuel:Turnpike.Run.default_fuel compiled.PP.prog
    in
    if not trace.Turnpike_ir.Trace.complete then begin
      prerr_endline "trace truncated; lower --scale";
      exit 1
    end;
    let campaign =
      Turnpike_resilience.Injector.campaign ~seed ~count:faults trace
    in
    let records, _rep = F.campaign ~golden ~compiled campaign in
    let summary = F.summarize ~rung records in
    (* The static estimate reads the same (possibly mutated) binary: the
       mutant wiped the claims and dropped the checkpoints in place, so
       the analysis sees exactly what the campaign executed. *)
    let module An = Turnpike_analysis in
    let static_v =
      if not compare_static then None
      else
        Some
          (An.Vuln.compute
             (An.Context.with_machine ~wcdl:10 (PP.analysis_context compiled)))
    in
    let keys_of rows = List.map (fun (r : F.row) -> r.F.key) rows in
    let skeys_of rows = List.map (fun (r : An.Vuln.row) -> r.An.Vuln.key) rows in
    let agreements (v : An.Vuln.t) =
      [
        ( "sites", An.Rank.agreement ~k:top (skeys_of v.An.Vuln.by_site)
            (keys_of summary.F.by_site) );
        ( "registers", An.Rank.agreement ~k:top
            (skeys_of v.An.Vuln.by_register)
            (keys_of summary.F.by_register) );
        ( "regions", An.Rank.agreement ~k:5 (skeys_of v.An.Vuln.by_region)
            (keys_of summary.F.by_region) );
      ]
    in
    if json then begin
      match static_v with
      | None -> print_string (F.summary_to_json summary)
      | Some v ->
        Printf.printf "{\"dynamic\":%s,\"static\":%s,\"agreement\":{%s}}"
          (F.summary_to_json summary) (An.Vuln.to_json v)
          (String.concat ","
             (List.map
                (fun (axis, (rho, (hits, denom))) ->
                  Printf.sprintf
                    "\"%s\":{\"spearman\":%.6f,\"top_k_hits\":%d,\"top_k\":%d}"
                    axis rho hits denom)
                (agreements v)))
    end
    else begin
      R.section
        (Printf.sprintf "forensic report: %s under %s (%d faults, seed %d)"
           (Suite.qualified_name b) rung summary.F.total seed);
      let cls = summary.F.by_class in
      Printf.printf
        "landed %d/%d   masked %d   detected %d   sdc %d   crashed %d\n"
        summary.F.landed summary.F.total cls.F.masked cls.F.detected
        cls.F.sdc cls.F.crashed;
      Printf.printf
        "mean detect latency %.1f   mean rewind %.1f   dropped events %d\n"
        summary.F.mean_detect_latency summary.F.mean_rewind
        summary.F.dropped_events;
      let first_rows rows = List.filteri (fun i _ -> i < top) rows in
      let table title key rows =
        R.subsection title;
        R.print_table (Turnpike.Csv_export.forensics_columns ~key) (first_rows rows)
      in
      table "most vulnerable sites" "site (block:index)" summary.F.by_site;
      table "most vulnerable registers" "register" summary.F.by_register;
      table "most vulnerable regions" "region" summary.F.by_region;
      (match static_v with
      | None -> ()
      | Some v ->
        let stable title key rows =
          R.subsection title;
          R.print_table
            R.
              [
                str key 24 (fun (r : An.Vuln.row) -> r.An.Vuln.key);
                float ~fmt:(Printf.sprintf "%.2f") "exposure" 10 (fun r ->
                    r.An.Vuln.exposure);
                float ~fmt:(Printf.sprintf "%.4f") "score" 10 (fun r -> r.An.Vuln.score);
              ]
            (first_rows rows)
        in
        Printf.printf
          "\nstatic estimate (no faults): predicted AVF %.6f, %d coverage \
           gap(s), wcdl %d\n"
          v.An.Vuln.predicted_avf
          (List.length v.An.Vuln.gaps)
          v.An.Vuln.wcdl;
        stable "most vulnerable sites (static)" "site (block:index)"
          v.An.Vuln.by_site;
        stable "most vulnerable registers (static)" "register"
          v.An.Vuln.by_register;
        stable "most vulnerable regions (static)" "region" v.An.Vuln.by_region;
        R.subsection "static-vs-dynamic rank agreement";
        List.iter
          (fun (axis, (rho, (hits, denom))) ->
            Printf.printf "  %-10s spearman %+.3f   top-%d overlap %d/%d\n"
              axis rho denom hits denom)
          (agreements v));
      match victim with
      | None -> ()
      | Some (v, affected) ->
        let convicted =
          match summary.F.by_region with
          | top :: _ -> List.mem top.F.key (List.map string_of_int affected)
          | [] -> false
        in
        Printf.printf
          "\nmutant ground truth: checkpoints of %s dropped (live-in of \
           region%s %s) -> top-ranked region %s\n"
          (Turnpike_ir.Reg.to_string v)
          (if List.length affected = 1 then "" else "s")
          (String.concat "," (List.map string_of_int affected))
          (if convicted then "CONVICTED" else "NOT convicted");
        if not convicted then exit 1
    end;
    match csv_dir with
    | None -> ()
    | Some dir ->
      Turnpike.Csv_export.forensics ~dir records summary;
      if not json then Printf.printf "[forensic csv written under %s]\n" dir
  in
  Cmd.v (Cli.info "report" ~doc)
    Term.(
      const run $ Cli.jobs $ scheme_arg $ Cli.scale $ Cli.faults 60 $ Cli.seed
      $ top_arg $ mutant_arg $ compare_static_arg $ json_arg $ bench_arg
      $ csv_arg)

(* ------------------------------------------------------------------ *)

let lint_cmd =
  let doc =
    "Run the static resilience soundness checks over compiled benchmarks. \
     Every scheme of the ablation ladder is checked unless -s narrows it; \
     every benchmark is checked unless -b does. Exits non-zero if any \
     Error-severity diagnostic is found. Output is identical at any --jobs \
     count."
  in
  let bench_opt_arg =
    Term.(
      const (Option.map find_bench)
      $ Arg.(value & opt (some string) None
             & bench_info "Benchmark to lint (default: all 36)."))
  in
  let scheme_opt_arg =
    Arg.(
      value
      & opt (some scheme_conv) None
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:"Scheme to lint (default: baseline plus the full ladder).")
  in
  let per_pass_arg =
    Arg.(
      value & flag
      & info [ "per-pass" ]
          ~doc:
            "Run the registry between every compiler pass and attribute \
             each diagnostic to the pass that introduced it. Incremental: \
             only checks whose declared facet reads a pass dirtied are \
             re-run.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "With --per-pass: print, for every cell, which checks the \
             incremental registry re-ran after each pass (text output \
             only).")
  in
  let full_recheck_arg =
    Arg.(
      value & flag
      & info [ "full-recheck" ]
          ~doc:
            "With --per-pass: disable the incremental engine and re-run \
             every check after every pass. The report is byte-identical \
             to the incremental one; this is the oracle it is diffed \
             against.")
  in
  let vuln_arg =
    Arg.(
      value & flag
      & info [ "vuln" ]
          ~doc:
            "Instead of diagnostics, report the static ACE/AVF vulnerability \
             estimate per cell: ranked region/register/site tables and the \
             predicted AVF, computed purely from the IR (no faults \
             injected). --per-pass/--explain/--full-recheck do not apply.")
  in
  let vcsv_arg =
    Cli.csv
      ~doc:
        "With --vuln: write vuln_by_site.csv, vuln_by_register.csv and \
         vuln_by_region.csv under $(docv) (one score column per scheme; \
         keys a scheme never ranks render as nan)."
  in
  let run () scheme per_pass explain full_recheck vuln sb scale json bench vcsv =
    let benches = match bench with None -> Suite.all () | Some b -> [ b ] in
    let scheme_list =
      match scheme with None -> List.map snd schemes | Some s -> [ s ]
    in
    if vuln then begin
      let report =
        Turnpike.Lint.run_vuln ~sb_size:sb ~scale ~schemes:scheme_list benches
      in
      if json then print_string (Turnpike.Lint.vuln_to_json report)
      else print_string (Turnpike.Lint.vuln_to_text report);
      match vcsv with
      | None -> ()
      | Some dir ->
        Turnpike.Csv_export.vuln ~dir report;
        if not json then Printf.printf "[vuln csv written under %s]\n" dir
    end
    else begin
      let report =
        Turnpike.Lint.run ~per_pass ~full_recheck ~sb_size:sb ~scale
          ~schemes:scheme_list benches
      in
      if json then print_string (Turnpike.Lint.to_json report)
      else print_string (Turnpike.Lint.to_text ~explain report);
      if report.Turnpike.Lint.errors > 0 then exit 1
    end
  in
  Cmd.v (Cli.info "lint" ~doc)
    Term.(
      const run $ Cli.jobs $ scheme_opt_arg $ per_pass_arg $ explain_arg
      $ full_recheck_arg $ vuln_arg $ sb_arg $ Cli.scale $ json_arg
      $ bench_opt_arg $ vcsv_arg)

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let module PP = Turnpike_compiler.Pass_pipeline in
  let module Tk = Turnpike_frontend.Tk in
  let doc =
    "Compile a .tk kernel file (docs/LANGUAGE.md) through the pass pipeline \
     and print the executed passes, the static statistics and the resulting \
     IR listing. The output is fully deterministic: byte-identical at any \
     --jobs count."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.tk" ~doc:"Kernel source file.")
  in
  let pipeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pipeline" ] ~docv:"SPEC"
          ~doc:
            "Pass pipeline to run: $(b,default); removals like \
             $(b,-licm_sink,-scheduling) (the default sequence minus those \
             passes); or an explicit ordered pass list like \
             $(b,regalloc,partition_and_checkpoint,region_metadata). The \
             spec is validated against each pass's dirtied/read facet \
             contracts — dropping a mandatory pass or ordering passes \
             unsoundly is rejected with a diagnostic.")
  in
  let run () file scheme sb scale pipeline json =
    if not (Tk.is_tk_file file) then begin
      Printf.eprintf "%s: error: expected a .tk kernel file\n" file;
      exit 1
    end;
    match Tk.compile_file ~scale file with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok prog ->
      let opts = Turnpike.Scheme.compile_opts scheme ~sb_size:sb in
      let pipeline =
        match pipeline with
        | None -> None
        | Some spec -> (
          match PP.resolve_pipeline ~opts spec with
          | Ok names -> Some names
          | Error msg ->
            Printf.eprintf "invalid --pipeline spec: %s\n" msg;
            exit 1)
      in
      let c = PP.compile ~opts ?pipeline prog in
      let passes =
        match pipeline with Some names -> names | None -> PP.pass_names opts
      in
      if json then
        Printf.printf
          "{\"kernel\":\"%s\",\"scheme\":\"%s\",\"scale\":%d,\"sb\":%d,\"passes\":[%s],\"regions\":%d,\"static_stats\":%s}\n"
          prog.Turnpike_ir.Prog.func.Turnpike_ir.Func.name
          scheme.Turnpike.Scheme.name scale sb
          (String.concat "," (List.map (Printf.sprintf "\"%s\"") passes))
          (Array.length c.PP.regions)
          (Turnpike_compiler.Static_stats.to_json c.PP.stats)
      else begin
        Printf.printf "kernel %s from %s (scheme %s, scale %d, sb %d)\n"
          prog.Turnpike_ir.Prog.func.Turnpike_ir.Func.name file
          scheme.Turnpike.Scheme.name scale sb;
        Printf.printf "passes: %s\n" (String.concat " -> " passes);
        Printf.printf "static: %s\n"
          (Turnpike_compiler.Static_stats.to_string c.PP.stats);
        Printf.printf "regions: %d\n\n" (Array.length c.PP.regions);
        print_string (Turnpike_ir.Func.to_string c.PP.prog.Turnpike_ir.Prog.func)
      end
  in
  Cmd.v (Cli.info "compile" ~doc)
    Term.(
      const run $ Cli.jobs $ file_arg $ scheme_arg $ sb_arg $ Cli.scale
      $ pipeline_arg $ json_arg)

(* ------------------------------------------------------------------ *)

let recovery_cmd =
  let doc = "Dump the generated per-region recovery blocks (paper Fig 1b)." in
  let run scale b =
    let c =
      Turnpike.Run.compile_with
        { Turnpike.Run.default_params with scale }
        Turnpike.Scheme.turnpike b
    in
    let blocks =
      Turnpike_compiler.Recovery_codegen.generate ~compiled:c.Turnpike.Run.compiled
        ~nregs:32
    in
    Printf.printf "%s: %d regions, %d recovery instructions\n\n"
      (Suite.qualified_name b) (List.length blocks)
      (Turnpike_compiler.Recovery_codegen.size blocks);
    List.iter
      (fun blk -> print_string (Turnpike_compiler.Recovery_codegen.to_string blk))
      blocks
  in
  Cmd.v (Cli.info "recovery" ~doc) Term.(const run $ Cli.scale $ bench_arg)

let cost_cmd =
  let doc = "Print the hardware cost table (paper Table 1)." in
  let run () =
    List.iter
      (fun (r : Turnpike_arch.Cost_model.table1_row) ->
        Printf.printf "%-46s %12.3f um^2 %10.5f pJ\n" r.Turnpike_arch.Cost_model.label
          r.Turnpike_arch.Cost_model.area_um2 r.Turnpike_arch.Cost_model.energy_pj)
      (Turnpike_arch.Cost_model.table1 ())
  in
  Cmd.v (Cli.info "cost" ~doc) Term.(const run $ const ())

let wcdl_cmd =
  let doc = "Query the acoustic-sensor model (paper Fig 18)." in
  let sensors_arg =
    Cli.positive ~flag:"--sensors" ~expects:"a positive count"
      Arg.(value & opt int 300 & info [ "n"; "sensors" ] ~docv:"N" ~doc:"Deployed sensors.")
  in
  let clock_arg =
    Cli.checked ~flag:"--ghz" ~expects:"a positive finite clock"
      (fun g -> Float.is_finite g && g > 0.0)
      (Printf.sprintf "%g")
      Arg.(value & opt float 2.5 & info [ "f"; "ghz" ] ~docv:"GHZ" ~doc:"Core clock.")
  in
  let run sensors ghz =
    let s = Turnpike_arch.Sensor.create ~num_sensors:sensors ~clock_ghz:ghz () in
    Printf.printf "%d sensors at %.1fGHz: WCDL %d cycles, ~%.2f%% die area\n" sensors ghz
      (Turnpike_arch.Sensor.wcdl s)
      (Turnpike_arch.Sensor.area_overhead_percent s)
  in
  Cmd.v (Cli.info "wcdl" ~doc) Term.(const run $ sensors_arg $ clock_arg)

let explore_cmd =
  let module X = Turnpike.Explore in
  let module DP = Turnpike.Design_point in
  let doc =
    "Explore the cross-layer design space — core model, store-buffer depth, \
     CLQ size, color-pool width, sensor deployment and compiler rung — and \
     report the Pareto frontier over (runtime overhead, area, energy, \
     campaign SDC rate). Every point is scored once by full-scale simulation \
     and CI-stopped fault campaigns. Output is identical at any --jobs \
     count; each frontier point is re-validated at full scale before \
     reporting (non-zero exit if validation fails)."
  in
  let grids = [ ("tiny", DP.tiny_spec); ("default", DP.default_spec); ("wide", DP.wide_spec) ] in
  let grid_arg =
    Arg.(value & opt (enum (List.map (fun (name, _) -> (name, name)) grids)) "default"
         & info [ "grid" ] ~docv:"GRID"
             ~doc:"Design grid: $(b,tiny) (4 points), $(b,default) (64) or \
                   $(b,wide) (486).")
  in
  let full_faults = (X.full_budget Turnpike.Run.default_params).X.max_faults in
  let faults_arg = Cli.faults ~doc:"Campaign fault supply." full_faults in
  let csv_arg =
    Cli.csv ~doc:"Write explore_grid.csv and explore_pareto.csv under $(docv)."
  in
  let run () grid scale seed ci faults forensics csv_dir =
    let params = { Turnpike.Run.default_params with Turnpike.Run.scale } in
    let full = X.full_budget params in
    let budget =
      {
        full with
        X.max_faults = faults;
        ci_half_width = Option.value ~default:full.X.ci_half_width ci;
      }
    in
    let spec = List.assoc grid grids in
    let report = X.run ~budget ~seed ~params ~forensics ~spec () in
    Printf.printf "grid %s: %d points over {%s}, seed %d\n" grid
      report.X.grid_size
      (String.concat ", " report.X.benches)
      report.X.seed;
    print_endline "Pareto frontier:";
    List.iter
      (fun (r : X.point_result) ->
        let o = r.X.objectives in
        Printf.printf
          "  %-36s overhead %.3f  area %.1f um^2  %.2f pJ/kinstr  SDC %.4f \
           (%d faults)\n"
          (DP.id r.X.point) o.X.overhead o.X.area_um2 o.X.energy_pj_per_kinstr
          o.X.sdc_rate o.X.faults;
        match r.X.forensics with
        | None -> ()
        | Some s ->
          let module F = Turnpike_resilience.Forensics in
          let top =
            match s.F.by_site with
            | [] -> "none"
            | row :: _ ->
              Printf.sprintf "%s (vuln %.3f)" row.F.key
                (F.vulnerability row.F.counts)
          in
          Printf.printf
            "    forensics[%s]: landed %d/%d, top site %s, dropped %d\n"
            s.F.rung s.F.landed s.F.total top s.F.dropped_events)
      report.X.frontier;
    Printf.printf "frontier re-validation at full scale: %s\n"
      (if report.X.validated then "ok" else "FAILED");
    (match csv_dir with
    | None -> ()
    | Some dir ->
      let grid_path = Filename.concat dir "explore_grid.csv" in
      let pareto_path = Filename.concat dir "explore_pareto.csv" in
      Turnpike.Csv_export.explore_grid ~path:grid_path report;
      Turnpike.Csv_export.explore_pareto ~path:pareto_path report;
      Printf.printf "[csv written to %s and %s]\n" grid_path pareto_path);
    if not report.X.validated then exit 1
  in
  Cmd.v (Cli.info "explore" ~doc)
    Term.(
      const run $ Cli.jobs $ grid_arg $ Cli.scale $ Cli.seed $ Cli.ci
      $ faults_arg $ forensics_arg $ csv_arg)

let () =
  let doc = "Turnpike: lightweight soft error resilience for in-order cores (MICRO'21 reproduction)" in
  Cli.eval
    (Cmd.group
       (Cli.info "turnpike-cli" ~version:"1.0.0" ~doc)
       [
         list_cmd; run_cmd; trace_cmd; inject_cmd; report_cmd; lint_cmd;
         compile_cmd; recovery_cmd; cost_cmd; wcdl_cmd; explore_cmd;
       ])
