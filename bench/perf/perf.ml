(* The repository's performance benchmark: five named workloads, each run
   in its own process, printing end-to-end metrics (untraced run) or
   per-layer metrics (traced run) as "name value unit" lines followed by
   one JSON result line.

     perf.exe --workload NAME [--seed S] [--jobs N] [--seconds T]
              [--trace FILE] [--json FILE]
     perf.exe --all [--seed S] [--jobs N] [--seconds T] [--json FILE]
     perf.exe --compare A.json B.json
     perf.exe --smoke

   See README.md next to this file for the metric glossary. *)

let now = Span.now
let setup_reps = 5

let usage =
  "usage: perf.exe --workload NAME [--seed S] [--jobs N] [--seconds T] [--trace FILE] \
   [--json FILE]\n\
  \       perf.exe --all [--seed S] [--jobs N] [--seconds T] [--json FILE]\n\
  \       perf.exe --compare A.json B.json\n\
  \       perf.exe --smoke\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perf: %s\n%s\n" msg usage;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(data, n=4) gives them
   (the default "exclusive" method). *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None | (exception Sys_error _) -> Float.nan

type rounds = (Workload.round * float * bool) list  (** round, seconds, traced *)

let end_to_end (w : Workload.t) ~setup ~(rounds : rounds) =
  let lat = Array.concat (List.map (fun (r, _, _) -> r.Workload.latencies) rounds) in
  Array.sort compare lat;
  [
    m "setup_s" "s" (median setup);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "ops_per_s" "1/s"
      (median (List.map (fun (r, s, _) -> float_of_int r.Workload.ops /. s) rounds));
    m "op_p50_ms" "ms" (1e3 *. quantile lat 0.5);
    m "op_tail_ms" "ms" (1e3 *. quantile lat w.tail);
  ]

let per_layer ~(rounds : rounds) =
  let t = Span.by_name () in
  let get f n = match Hashtbl.find_opt t n with Some s -> f s | None -> 0. in
  let dur = get (fun s -> s.Span.dur) and words = get (fun s -> s.Span.words) in
  let calls = get (fun s -> float_of_int s.Span.n) in
  let c = Span.counted in
  let div a b = if b > 0. then a /. b else 0. in
  let compiles = calls "compiler.compile" +. calls "compiler.compile_checked" in
  let compile_s = dur "compiler.compile" +. dur "compiler.compile_checked" in
  let sim_s = dur "arch.inorder" +. dur "arch.ooo" in
  let faults = c "resilience.faults" in
  let coverage, self = Span.coverage () in
  (* Round 0 also warms the heap, so it is left out of the comparison. *)
  let mean traced =
    let l = List.filteri (fun i (_, _, t) -> i > 0 && t = traced) rounds in
    div (List.fold_left (fun a (_, s, _) -> a +. s) 0. l) (float_of_int (List.length l))
  in
  [
    m "workloads.build_s" "s" (dur "workloads.build");
    m "workloads.builds" "count" (calls "workloads.build");
    m "frontend.generate_s" "s" (dur "frontend.generate");
    m "frontend.compile_s" "s" (dur "frontend.compile");
    m "frontend.us_per_program" "us" (1e6 *. div (dur "frontend.compile") (calls "frontend.compile"));
    m "frontend.programs" "count" (c "frontend.programs");
    m "frontend.errors" "count" (c "frontend.errors");
    m "compiler.compile_s" "s" (dur "compiler.compile");
    m "compiler.checked_compile_s" "s" (dur "compiler.compile_checked");
    m "compiler.compiles" "count" compiles;
    m "compiler.us_per_compile" "us" (1e6 *. div compile_s compiles);
    m "compiler.alloc_mwords" "Mwords"
      ((words "compiler.compile" +. words "compiler.compile_checked") /. 1e6);
    m "compiler.code_size" "count" (c "compiler.code_size");
    m "compiler.ckpts_removed" "count" (c "compiler.ckpts_removed");
    m "analysis.vuln_s" "s" (dur "analysis.vuln");
    m "analysis.vuln_calls" "count" (calls "analysis.vuln");
    m "analysis.machine_checks_s" "s" (dur "analysis.machine_checks");
    m "analysis.checks_run" "count" (c "analysis.checks_run");
    m "analysis.diags" "count" (c "analysis.diags");
    m "analysis.errors" "count" (c "analysis.errors");
    m "analysis.error_programs" "count" (c "analysis.error_programs");
    m "ir.trace_s" "s" (dur "ir.trace");
    m "ir.traces" "count" (calls "ir.trace");
    m "ir.trace_events" "count" (c "ir.trace_events");
    m "ir.ns_per_event" "ns" (1e9 *. div (dur "ir.trace") (c "ir.trace_events"));
    m "ir.alloc_mwords" "Mwords" (words "ir.trace" /. 1e6);
    m "arch.inorder_s" "s" (dur "arch.inorder");
    m "arch.inorder_sims" "count" (calls "arch.inorder");
    m "arch.ooo_s" "s" (dur "arch.ooo");
    m "arch.ooo_sims" "count" (calls "arch.ooo");
    m "arch.sim_instrs" "count" (c "arch.sim_instrs");
    m "arch.ns_per_sim_instr" "ns" (1e9 *. div sim_s (c "arch.sim_instrs"));
    m "arch.alloc_mwords" "Mwords" ((words "arch.inorder" +. words "arch.ooo") /. 1e6);
    m "arch.sim_cycles" "cycles" (c "arch.sim_cycles");
    m "arch.sb_full_stall_cycles" "cycles" (c "arch.sb_full_stall_cycles");
    m "arch.data_stall_cycles" "cycles" (c "arch.data_stall_cycles");
    m "arch.rbb_stall_cycles" "cycles" (c "arch.rbb_stall_cycles");
    m "arch.quarantined" "count" (c "arch.quarantined");
    m "arch.fast_released" "count" (c "arch.fast_released");
    m "arch.overhead_geomean" "x" (c "arch.overhead_geomean");
    m "resilience.pilot_s" "s" (dur "resilience.pilot");
    m "resilience.pilots" "count" (calls "resilience.pilot");
    m "resilience.snapshots" "count" (c "resilience.snapshots");
    m "resilience.snapshots_used_frac" "frac"
      (div (c "resilience.snapshots_used") (c "resilience.snapshots"));
    m "resilience.fork_s" "s" (dur "resilience.fork");
    m "resilience.faults" "count" faults;
    m "resilience.us_per_fault" "us" (1e6 *. div (dur "resilience.fork") faults);
    m "resilience.alloc_words_per_fault" "words" (div (words "resilience.fork") faults);
    m "resilience.detected" "count" (c "resilience.detected");
    m "resilience.masked" "count" (c "resilience.masked");
    m "resilience.sdc" "count" (c "resilience.sdc");
    m "resilience.crashed" "count" (c "resilience.crashed");
    m "resilience.mean_reexec_overhead" "x" (c "resilience.mean_reexec_overhead");
    m "core.explore_s" "s" (dur "core.explore");
    m "core.evals_proxy" "count" (c "core.evals_proxy");
    m "core.evals_mid" "count" (c "core.evals_mid");
    m "core.evals_full" "count" (c "core.evals_full");
    m "core.frontier_size" "count" (c "core.frontier_size");
    m "core.alloc_mwords" "Mwords" (c "core.alloc_words" /. 1e6);
    m "parallel.maps" "count" (c "parallel.maps");
    m "parallel.tasks" "count" (c "parallel.tasks");
    m "parallel.utilization" "frac" (div (c "parallel.busy_s") (c "parallel.capacity_s"));
    m "parallel.idle_s" "s" (c "parallel.capacity_s" -. c "parallel.busy_s");
    m "bench.self_s" "s" self;
    m "bench.span_coverage" "frac" coverage;
    m "bench.trace_overhead_pct" "%" (100. *. (div (mean true) (mean false) -. 1.));
  ]

(* ------------------------------------------------------------------ *)
(* One workload *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  json : Json.t;  (** the record --json appends *)
}

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ]))
       ms)

(* Set up [setup_reps] times (reporting the median), then run rounds until
   at least two rounds ran and [seconds] have passed. A traced run records the
   last set-up and rounds 0 and 2, so its counts cover the same work in
   every run; the other rounds, unrecorded, are the reference for the
   tracing overhead. *)
let run_workload (w : Workload.t) (ctx : Workload.ctx) ~seconds ~trace =
  let traced = trace <> None in
  let min_rounds = if traced then 3 else 2 in
  Span.reset ();
  let inst = w.make ctx in
  let setup =
    List.init setup_reps (fun i ->
        Span.set_recording (traced && i = setup_reps - 1);
        let t0 = now () in
        inst.setup ();
        let d = now () -. t0 in
        Span.set_recording false;
        Printf.eprintf "set-up %d: %.6f s\n%!" i d;
        d)
  in
  let start = now () in
  let rec loop i acc =
    if i >= min_rounds && now () -. start >= seconds then List.rev acc
    else begin
      let rec_on = traced && (i = 0 || i = 2) in
      Span.set_recording rec_on;
      let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
      let c0 = cpu () in
      let t0 = now () in
      let r = inst.round () in
      let d = now () -. t0 in
      Span.set_recording false;
      Printf.eprintf "round %d: %d ops in %.3f s, cpu %.3f s%s\n%!" i r.Workload.ops d (cpu () -. c0)
        (if rec_on then " (recorded)" else "");
      (* Digest now, untimed, so the round's outputs can be freed: the heap
         must not grow with the number of rounds a fast host fits in. *)
      ignore (Lazy.force r.Workload.digest);
      loop (i + 1) ((r, d, rec_on) :: acc)
    end
  in
  let rounds = loop 0 [] in
  let digests = List.map (fun (r, _, _) -> Lazy.force r.Workload.digest) rounds in
  let checks =
    ("outputs identical across rounds", Workload.all_equal digests) :: inst.checks ()
  in
  List.iter
    (fun (name, ok) -> Printf.eprintf "check %s: %s\n%!" (if ok then "ok" else "FAILED") name)
    checks;
  let attempted = List.fold_left (fun a (r, _, _) -> a + r.Workload.ops) 0 rounds in
  let failed = List.fold_left (fun a (r, _, _) -> a + r.Workload.failed) 0 rounds in
  let metrics =
    match trace with
    | None -> end_to_end w ~setup ~rounds
    | Some file ->
      Span.write_chrome file;
      per_layer ~rounds
  in
  let correct = List.for_all snd checks in
  let json =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Num (float_of_int ctx.seed));
        ("jobs", Json.Num (float_of_int ctx.jobs));
        ("seconds", Json.Num seconds);
        ("traced", Json.Bool traced);
        ("rounds", Json.Num (float_of_int (List.length rounds)));
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics_json metrics);
      ]
  in
  { correct; attempted; failed; metrics; json }

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", metrics_json r.metrics);
       ])

let read_json file = Json.of_string (In_channel.with_open_bin file In_channel.input_all)

(* Result sets are JSON arrays of run records; --json appends to one. *)
let append_record file record =
  let old =
    if Sys.file_exists file then
      match read_json file with
      | Json.Arr l -> l
      | _ | (exception Json.Parse_error _) -> die "%s is not a result set (a JSON array)" file
    else []
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string r))
        (old @ [ record ]);
      output_string oc "\n]\n")

(* ------------------------------------------------------------------ *)
(* --compare *)

type bound = { metric : string; higher : bool; bound : float }

let read_bounds file =
  match read_json file with
  | exception Sys_error msg -> die "%s" msg
  | exception Json.Parse_error msg -> die "%s: %s" file msg
  | j ->
    Json.to_list (Json.member "end_to_end" j)
    |> List.map (fun e ->
           {
             metric = Json.to_str (Json.member "name" e);
             higher = Json.to_str (Json.member "better" e) = "higher";
             bound = Json.to_num (Json.member "bound" e);
           })

(* A (the parent) against B (the change), per the rules the README gives:
   unresolved when A's own spread exceeds the bound and no side wins
   every run; worse when B's median is worse by more than the bound;
   better when B wins nine pairs in ten and its median moved by more than
   A's spread; unchanged otherwise. *)
let verdict b a_vals b_vals =
  let worse_by x y = if b.higher then (x -. y) /. x else (y -. x) /. x in
  let beats x y = if b.higher then x > y else x < y in
  let ma = median a_vals and mb = median b_vals in
  let q1, q3 = quartiles a_vals in
  let spread = (q3 -. q1) /. Float.abs ma in
  let every p xs ys = List.for_all (fun x -> List.for_all (fun y -> p x y) ys) xs in
  let pairs = min (List.length a_vals) (List.length b_vals) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins = List.length (List.filter Fun.id (List.map2 (fun x y -> beats y x) (take a_vals) (take b_vals))) in
  let change = worse_by ma mb in
  if every beats b_vals a_vals then "better"
  else if every beats a_vals b_vals && change > b.bound then "worse"
  else if spread > b.bound then "unresolved"
  else if change > b.bound then "worse"
  else if 10 * wins >= 9 * pairs && Float.abs (mb -. ma) > q3 -. q1 then "better"
  else "unchanged"

let compare_sets fa fb =
  let bounds = read_bounds "BENCHMARK.json" in
  let load f =
    match read_json f with
    | Json.Arr l -> List.filter (fun r -> Json.member "traced" r <> Json.Bool true) l
    | _ -> die "%s is not a result set (a JSON array)" f
    | exception Sys_error msg -> die "%s" msg
    | exception Json.Parse_error msg -> die "%s: %s" f msg
  in
  let a = load fa and b = load fb in
  let values runs w metric =
    List.filter_map
      (fun r ->
        if Json.to_str (Json.member "workload" r) <> w then None
        else
          let v = Json.to_num (Json.member "value" (Json.member metric (Json.member "metrics" r))) in
          if Float.is_nan v then None else Some v)
      runs
  in
  let regressions = ref 0 in
  Printf.printf "%-16s %-12s %30s %30s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun bd ->
          match (values a w.name bd.metric, values b w.name bd.metric) with
          | [], _ | _, [] -> ()
          | av, bv ->
            let show vs =
              let q1, q3 = quartiles vs in
              Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (median vs) q1 q3 (List.length vs)
            in
            let v = verdict bd av bv in
            if v = "worse" then incr regressions;
            Printf.printf "%-16s %-12s %30s %30s %+7.2f%%  %s\n" w.name bd.metric (show av)
              (show bv)
              (100. *. (median bv -. median av) /. median av)
              v)
        bounds)
    Workload.all;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) beyond the bounds in BENCHMARK.json\n" !regressions;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* --smoke: tiny sizes, seconds, not minutes; run by dune runtest. *)

let smoke () =
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "smoke: %s\n" s; exit 1) fmt in
  List.iter
    (fun (w : Workload.t) ->
      let digests jobs =
        let inst = w.make { Workload.seed = 3; jobs; small = true } in
        inst.setup ();
        let rs = List.init 2 (fun _ -> inst.round ()) in
        List.iter (fun (n, ok) -> if not ok then fail "%s: check failed: %s" w.name n) (inst.checks ());
        List.iter (fun r -> if r.Workload.failed > 0 then fail "%s: failed ops" w.name) rs;
        List.map (fun r -> Lazy.force r.Workload.digest) rs
      in
      if not (Workload.all_equal (digests 1 @ digests 2)) then
        fail "%s: outputs differ across rounds or job counts" w.name)
    Workload.all;
  (* The full path, traced: the result line and the trace parse, and the
     metric names are exactly the ones BENCHMARK.json declares. *)
  let trace = "perf-smoke-trace.json" in
  let w = List.hd Workload.all in
  let r =
    run_workload w { Workload.seed = 3; jobs = 2; small = true } ~seconds:0. ~trace:(Some trace)
  in
  let parse what s = try Json.of_string s with Json.Parse_error e -> fail "%s: %s" what e in
  ignore (parse "result line" (result_line r));
  ignore (parse "record" (Json.to_string r.json));
  ignore (parse "chrome trace" (In_channel.with_open_bin trace In_channel.input_all));
  Sys.remove trace;
  let plain = run_workload w { Workload.seed = 3; jobs = 2; small = true } ~seconds:0. ~trace:None in
  let bench = "../../BENCHMARK.json" in
  if Sys.file_exists bench then begin
    let j = read_json bench in
    let names key = List.map (fun e -> Json.to_str (Json.member "name" e)) (Json.to_list (Json.member key j)) in
    let ours ms = List.map (fun x -> x.name) ms in
    if names "end_to_end" <> ours plain.metrics then fail "end_to_end names differ from BENCHMARK.json";
    if names "per_layer" <> ours r.metrics then fail "per_layer names differ from BENCHMARK.json";
    if names "workloads" <> List.map (fun (w : Workload.t) -> w.name) Workload.all then
      fail "workload names differ from BENCHMARK.json"
  end;
  (* Compare verdicts on made-up samples. *)
  let b = { metric = "x"; higher = true; bound = 0.1 } in
  let base = [ 100.; 101.; 99.; 100.5; 99.5 ] in
  if verdict b base (List.map (fun x -> x *. 0.8) base) <> "worse" then fail "verdict: worse";
  if verdict b base (List.map (fun x -> x *. 1.2) base) <> "better" then fail "verdict: better";
  if verdict b base (List.rev base) <> "unchanged" then fail "verdict: unchanged";
  if verdict b [ 50.; 150.; 100.; 60.; 140. ] base <> "unresolved" then fail "verdict: unresolved";
  (* Bad flags exit 2 with a message. *)
  List.iter
    (fun args ->
      let err_r, err_w = Unix.pipe () in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin null err_w
      in
      Unix.close err_w;
      Unix.close null;
      let msg = In_channel.input_all (Unix.in_channel_of_descr err_r) in
      Unix.close err_r;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 2 when msg <> "" -> ()
      | _ -> fail "%s: expected exit 2 with a message" (String.concat " " args))
    [ [ "--workload"; "nope" ]; [ "--workload"; "sweep"; "--seed"; "x" ]; [ "--bogus" ]; [] ];
  print_endline "smoke ok"

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let workload = ref None and all = ref false and compare = ref None in
  let seed = ref 1 and jobs = ref 2 and seconds = ref 10. in
  let trace = ref None and json = ref None and smoke_mode = ref false in
  let int flag v = match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" flag v in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Workload.find v with Some w -> workload := Some w | None -> die "unknown workload %S" v);
      parse rest
    | "--seed" :: v :: rest ->
      seed := int "--seed" v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := int "--jobs" v;
      if !jobs < 1 then die "--jobs must be at least 1";
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0. -> seconds := s
      | _ -> die "--seconds expects a non-negative number, got %S" v);
      parse rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | "--all" :: rest ->
      all := true;
      parse rest
    | "--compare" :: a :: b :: rest ->
      compare := Some (a, b);
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | x :: _ -> die "unknown or incomplete argument %S" x
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !all, !compare, !smoke_mode) with
  | _, _, _, true -> smoke ()
  | _, _, Some (a, b), false -> compare_sets a b
  | None, true, None, false ->
    if !trace <> None then die "--trace needs a single --workload";
    let failures =
      List.filter
        (fun (w : Workload.t) ->
          let args =
            [ "--workload"; w.name; "--seed"; string_of_int !seed; "--jobs"; string_of_int !jobs;
              "--seconds"; Printf.sprintf "%g" !seconds ]
            @ match !json with Some f -> [ "--json"; f ] | None -> []
          in
          print_endline ("== " ^ w.name);
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: args))
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
        Workload.all
    in
    if failures <> [] then exit 1
  | Some w, false, None, false ->
    let ctx = { Workload.seed = !seed; jobs = !jobs; small = false } in
    let r = run_workload w ctx ~seconds:!seconds ~trace:!trace in
    List.iter (fun x -> Printf.printf "%s %s %s\n" x.name (Json.number x.value) x.unit) r.metrics;
    Printf.printf "ops %d\nfailed %d\n" r.attempted r.failed;
    Option.iter (fun f -> append_record f r.json) !json;
    print_endline (result_line r);
    if not r.correct then exit 1
  | _ -> die "give one of --workload NAME, --all, --compare A B or --smoke"
