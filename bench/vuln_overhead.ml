(* Measures what the static vulnerability analysis costs on top of a
   plain compile: compiles every suite benchmark at the turnpike rung
   three ways — checking off (the baseline every other mode is charged
   against), with one Vuln.compute per compile (lint --vuln), and with
   the full six-check registry run plus
   Vuln.compute (lint --vuln after a checked build) — and reports the
   wall-clock totals as JSON on stdout.

   The numbers are meant to sit next to BENCH_analysis_overhead.json:
   same grid, same scale, same interleaved-repeat protocol, so the cost
   of the static AVF tables can be read as a delta over the registry
   costs recorded there.

   Usage:
     dune exec bench/vuln_overhead.exe -- [--scale N] [--repeat K] \
       > BENCH_vuln_overhead.json

   Runs strictly sequentially so the timed modes are comparable; --repeat
   sums K identical sweeps per mode to stabilize sub-second totals. *)

module PP = Turnpike_compiler.Pass_pipeline
module An = Turnpike_analysis
module Scheme = Turnpike.Scheme
module Suite = Turnpike_workloads.Suite

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  let scale = ref 8 in
  let repeat = ref 3 in
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
      scale := int_of_string n;
      parse rest
    | "--repeat" :: n :: rest ->
      repeat := max 1 (int_of_string n);
      parse rest
    | x :: _ ->
      Printf.eprintf "unknown argument %s; known: --scale N, --repeat K\n" x;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let benches = Suite.all () in
  let opts = Scheme.compile_opts Scheme.turnpike ~sb_size:4 in
  (* Build programs once; every timed mode compiles identical input. *)
  let progs = List.map (fun b -> b.Suite.build ~scale:!scale) benches in
  let sweep ~check ~vuln () =
    let regions = ref 0 in
    let avf = ref 0.0 in
    List.iter
      (fun prog ->
        let c = PP.compile ~opts ~check prog in
        if vuln then begin
          let v =
            An.Vuln.compute
              (An.Context.with_machine ~wcdl:10 (PP.analysis_context c))
          in
          regions := !regions + List.length v.An.Vuln.by_region;
          avf := !avf +. v.An.Vuln.predicted_avf
        end)
      progs;
    (!regions, !avf)
  in
  (* One untimed sweep warms the allocator and code paths, then the modes
     are timed interleaved — one sweep of each per repeat — so slow
     phases of a noisy host spread over every mode instead of landing on
     whichever one they coincide with. *)
  ignore (sweep ~check:PP.Off ~vuln:true ());
  let off_s = ref 0. and vuln_s = ref 0. and checked_s = ref 0. in
  let counts = ref (0, 0.0) in
  for _ = 1 to !repeat do
    let t, _ = time (sweep ~check:PP.Off ~vuln:false) in
    off_s := !off_s +. t;
    let t, c = time (sweep ~check:PP.Off ~vuln:true) in
    vuln_s := !vuln_s +. t;
    counts := c;
    let t, c' = time (sweep ~check:PP.Final ~vuln:true) in
    checked_s := !checked_s +. t;
    if c' <> c then begin
      Printf.eprintf "vuln tables depend on the check mode — they must not\n";
      exit 1
    end
  done;
  let off_s = !off_s and vuln_s = !vuln_s and checked_s = !checked_s in
  let regions, avf_sum = !counts in
  let pct base v = if base > 0. then 100. *. (v -. base) /. base else 0. in
  Printf.printf
    "{\n\
    \  \"grid\": \"all %d suite benchmarks, turnpike opts\",\n\
    \  \"scale\": %d,\n\
    \  \"repeat\": %d,\n\
    \  \"jobs\": 1,\n\
    \  \"compile_only_s\": %.3f,\n\
    \  \"compile_plus_vuln_s\": %.3f,\n\
    \  \"compile_checked_plus_vuln_s\": %.3f,\n\
    \  \"vuln_overhead_percent\": %.2f,\n\
    \  \"checked_plus_vuln_overhead_percent\": %.2f,\n\
    \  \"regions_ranked\": %d,\n\
    \  \"predicted_avf_sum\": %.6f,\n\
    \  \"host\": { \"note\": \"single-core container: \
     Domain.recommended_domain_count() = 1, so parallel speedups cannot \
     show here; re-record on wider hardware. Absolute times are \
     host-dependent; the overhead percentages are the portable signal. \
     Compare against BENCH_analysis_overhead.json (same grid and \
     protocol) to separate registry cost from Vuln.compute cost.\" },\n\
    \  \"note\": \"wall-clock, sequential, --repeat summed sweeps. \
     compile_only is the production baseline; compile_plus_vuln adds one \
     Vuln.compute per compile (what lint --vuln pays, roughly one extra \
     liveness fixpoint plus the window walks); compile_checked_plus_vuln stacks it on a whole-program \
     registry run. The bench aborts if the tables differ across check \
     modes — the analysis must be a pure function of the compiled \
     binary.\"\n\
     }\n"
    (List.length benches) !scale !repeat off_s vuln_s checked_s
    (pct off_s vuln_s) (pct off_s checked_s) regions avf_sum
