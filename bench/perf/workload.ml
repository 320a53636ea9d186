(* The five workloads. Each drives the layers only through their public
   functions and wraps every call in a span named after the layer's
   library directory ([compiler.compile] is a call into lib/compiler).

   A workload is set up (inputs made from the seed), then runs rounds of
   fixed work. Each round fans its ops out over the domain pool with one
   [Turnpike_parallel.map] and returns per-op latencies plus a digest of
   everything it computed; the digests must agree across rounds and
   across job counts. Checks that need extra work run after the timed
   rounds. *)

module Suite = Turnpike_workloads.Suite
module Scheme = Turnpike.Scheme
module Run = Turnpike.Run
module Explore = Turnpike.Explore
module DP = Turnpike.Design_point
module PP = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module An = Turnpike_analysis
module Interp = Turnpike_ir.Interp
module Trace = Turnpike_ir.Trace
module Timing = Turnpike_arch.Timing
module Ooo = Turnpike_arch.Ooo_timing
module Sim_stats = Turnpike_arch.Sim_stats
module Machine = Turnpike_arch.Machine
module Clq = Turnpike_arch.Clq
module Fault = Turnpike_resilience.Fault
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Recovery = Turnpike_resilience.Recovery
module Fuzz = Turnpike_frontend.Fuzz
module Tk = Turnpike_frontend.Tk

type ctx = {
  seed : int;
  jobs : int;
  small : bool;  (** the sizes [--smoke] runs at *)
}

type round = {
  ops : int;
  failed : int;
  latencies : float array;  (** seconds per op; a failed op reads +inf *)
  digest : string Lazy.t;  (** forced after the timed region *)
}

type instance = {
  setup : unit -> unit;
  round : unit -> round;
  checks : unit -> (string * bool) list;
}

type t = {
  name : string;
  tail : float;
      (** the quantile reported as [op_tail_ms]: p99 where two rounds give
          thousands of ops (p99.9 moved by a third between runs); where
          they give fewer, the highest with ten samples beyond it *)
  make : ctx -> instance;
}

let span = Span.span
let hex s = Digest.to_hex (Digest.string s)

(* One fan-out over the pool. Each task is an op: timed, a span root when
   recording, and its exception captured so one failing op fails alone. *)
let map ctx ~op f items =
  let t0 = Span.now () in
  let r =
    Turnpike_parallel.map ~jobs:ctx.jobs
      (fun x -> Span.op op (fun () -> try Ok (f x) with e -> Error e))
      items
  in
  let wall = Span.now () -. t0 in
  let n = Array.length items in
  Span.count "parallel.maps" 1.;
  Span.count "parallel.tasks" (float_of_int n);
  Span.count "parallel.capacity_s" (wall *. float_of_int (max 1 (min ctx.jobs n)));
  Span.count "parallel.busy_s" (Array.fold_left (fun a (_, d) -> a +. d) 0. r);
  r

(* Set-up runs on the calling domain alone: spawning pool domains costs
   more, and varies more, than most set-ups themselves. A failing set-up
   aborts the run. *)
let setup_each f items = Array.map (fun x -> fst (Span.op "bench.setup" (fun () -> f x))) items

let get = function Ok v, _ -> v | Error e, _ -> raise e

let latencies r =
  Array.map (fun (v, d) -> match v with Ok _ -> d | Error _ -> Float.infinity) r

let build ~scale (b : Suite.entry) =
  span "workloads.build" (fun () -> b.Suite.build ~scale)

let removed (s : Static_stats.t) =
  s.Static_stats.ckpts_pruned + s.ckpts_licm_eliminated + s.livm_ckpts_eliminated

let count_static (s : Static_stats.t) =
  Span.count "compiler.code_size" (float_of_int s.Static_stats.code_size);
  Span.count "compiler.ckpts_removed" (float_of_int (removed s))

let count_sim (s : Sim_stats.t) =
  let c k v = Span.count k (float_of_int v) in
  c "arch.sim_instrs" s.Sim_stats.instructions;
  c "arch.sim_cycles" s.cycles;
  c "arch.sb_full_stall_cycles" s.sb_full_stall_cycles;
  c "arch.data_stall_cycles" s.data_stall_cycles;
  c "arch.rbb_stall_cycles" s.rbb_stall_cycles;
  c "arch.quarantined" s.quarantined;
  c "arch.fast_released" (Sim_stats.fast_released s)

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* sweep: Figs 19/20 and the §1 OoO motivation, one row per kernel. *)

type row = {
  bench : Suite.entry;
  points : Sim_stats.t list;
      (** baseline, turnstile and turnpike at each WCDL, then OoO baseline
          and OoO turnstile: 13 points *)
  overhead10 : float;  (** turnpike / baseline cycles at WCDL 10 *)
}

let sweep_row (p : Run.params) (bench, prog) =
  let compile_trace (s : Scheme.t) ~sb_size =
    let opts = Scheme.compile_opts s ~sb_size in
    let c = span "compiler.compile" (fun () -> PP.compile ~opts prog) in
    count_static c.PP.stats;
    let trace, _ =
      span "ir.trace" (fun () -> Interp.trace_run ~fuel:p.fuel c.PP.prog)
    in
    Span.count "ir.trace_events" (float_of_int (Trace.length trace));
    if not trace.Trace.complete then
      failwith (Suite.qualified_name bench ^ ": trace incomplete");
    trace
  in
  let inorder (s : Scheme.t) ~wcdl ~sb_size trace =
    span "arch.inorder" (fun () ->
        Timing.simulate (Scheme.machine s ~wcdl ~sb_size) trace)
  in
  let ooo cfg trace = span "arch.ooo" (fun () -> Ooo.simulate cfg trace) in
  let tb = compile_trace Scheme.baseline ~sb_size:p.baseline_sb in
  let tt = compile_trace Scheme.turnstile ~sb_size:p.sb_size in
  let tp = compile_trace Scheme.turnpike ~sb_size:p.sb_size in
  let base = inorder Scheme.baseline ~wcdl:p.wcdl ~sb_size:p.baseline_sb tb in
  if base.Sim_stats.cycles = 0 then
    failwith (Suite.qualified_name bench ^ ": zero-cycle baseline");
  let at s trace = List.map (fun wcdl -> inorder s ~wcdl ~sb_size:p.sb_size trace) Turnpike.Experiments.wcdls in
  let turnstile = at Scheme.turnstile tt and turnpike = at Scheme.turnpike tp in
  let ooo_base = ooo Ooo.default_config tb in
  let ooo_turnstile = ooo (Ooo.turnstile_config ~wcdl:p.wcdl ()) tt in
  {
    bench;
    points = (base :: turnstile) @ turnpike @ [ ooo_base; ooo_turnstile ];
    overhead10 =
      float_of_int (List.hd turnpike).Sim_stats.cycles
      /. float_of_int base.Sim_stats.cycles;
  }

let sweep =
  let make ctx =
    let p =
      if ctx.small then { Run.default_params with scale = 1; fuel = 30_000 }
      else Run.default_params
    in
    let benches = if ctx.small then Explore.default_benches () else Suite.all () in
    let progs = ref [||] in
    let first = ref [] in
    let setup () =
      progs := setup_each (fun b -> (b, build ~scale:p.scale b)) (Array.of_list benches)
    in
    let round () =
      let r = map ctx ~op:"bench.row" (sweep_row p) !progs in
      let ok = Array.to_list r |> List.filter_map (fun (v, _) -> Result.to_option v) in
      if !first = [] then first := ok;
      List.iter (fun row -> List.iter count_sim row.points) ok;
      let n = List.length ok in
      if n > 0 then
        Span.set "arch.overhead_geomean"
          (exp
             (List.fold_left (fun a row -> a +. log row.overhead10) 0. ok
             /. float_of_int n));
      {
        ops = Array.length r;
        failed = Array.length r - n;
        latencies = latencies r;
        digest =
          lazy
            (hex
               (String.concat "\n"
                  (List.concat_map
                     (fun row -> List.map Sim_stats.to_json row.points)
                     ok)));
      }
    in
    let checks () =
      let matches b =
        let name = Suite.qualified_name b in
        match List.find_opt (fun row -> Suite.qualified_name row.bench = name) !first with
        | None -> false
        | Some row -> fst (Run.normalized_with p Scheme.turnpike b) = row.overhead10
      in
      [
        ( "wcdl10 overheads equal Run.normalized_with for libquan, mcf, radix",
          List.for_all matches (Explore.default_benches ()) );
      ]
    in
    { setup; round; checks }
  in
  { name = "sweep"; tail = 0.85; make }

(* ------------------------------------------------------------------ *)
(* lint: lint --per-pass --vuln over a fuzz corpus, the suite kernels and
   the shipped .tk examples. *)

type input = Text of string * string  (** file name, source *) | Built of Turnpike_ir.Prog.t

type cell = {
  diags : An.Diag.t list;
  checks_run : int;
  avf : float;
}

let lint_schemes = [ Scheme.turnstile; Scheme.turnpike ]

let lint_cell prog (s : Scheme.t) =
  let opts = Scheme.compile_opts s ~sb_size:4 in
  let c =
    span "compiler.compile_checked" (fun () -> PP.compile ~opts ~check:PP.PerPass prog)
  in
  count_static c.PP.stats;
  let m = Scheme.machine s ~wcdl:10 ~sb_size:4 in
  let ctx =
    An.Context.with_machine ~rbb_size:m.Machine.rbb_size
      ?clq_entries:
        (match m.Machine.clq with Some (Clq.Compact n) -> Some n | _ -> None)
      ~wcdl:m.Machine.wcdl (PP.analysis_context c)
  in
  (* The registry once more with machine parameters: the capacity checks
     lint adds after a checked build. *)
  let diags =
    span "analysis.machine_checks" (fun () ->
        let seen = Hashtbl.create 16 in
        List.iter (fun d -> Hashtbl.replace seen (An.Diag.key d) ()) c.PP.diags;
        An.Diag.sort (c.PP.diags @ An.Registry.fresh ~seen (An.Registry.run_whole ctx)))
  in
  let v = span "analysis.vuln" (fun () -> An.Vuln.compute ctx) in
  {
    diags;
    checks_run = List.fold_left (fun a (_, ran) -> a + List.length ran) 0 c.PP.check_log;
    avf = v.An.Vuln.predicted_avf;
  }

let lint_program input =
  let prog =
    match input with
    | Built p -> p
    | Text (file, src) -> (
      match span "frontend.compile" (fun () -> Tk.compile_string ~file ~scale:1 src) with
      | Ok p -> p
      | Error e -> failwith e)
  in
  List.map (lint_cell prog) lint_schemes

let errors cells =
  List.fold_left (fun a c -> a + An.Diag.error_count c.diags) 0 cells

let read_examples dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> failwith ("cannot read " ^ dir ^ "/*.tk")
  | files ->
    Array.to_list files |> List.filter Tk.is_tk_file |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           Text (path, In_channel.with_open_bin path In_channel.input_all))

let lint =
  let make ctx =
    let corpus = if ctx.small then 24 else 5000 in
    let kernels =
      if ctx.small then Explore.default_benches () else Suite.all ()
    in
    let scale = if ctx.small then 1 else Run.default_scale in
    let inputs = ref [||] and shipped = ref 0 in
    let first = ref [||] in
    let setup () =
      let fuzz =
        setup_each
          (fun i ->
            let seed = (ctx.seed * 10000) + i in
            Text
              ( Printf.sprintf "<fuzz-%d>" seed,
                span "frontend.generate" (fun () -> Fuzz.generate ~seed) ))
          (Array.init corpus Fun.id)
      in
      let built = setup_each (fun b -> Built (build ~scale b)) (Array.of_list kernels) in
      let examples = if ctx.small then [||] else Array.of_list (read_examples "examples") in
      inputs := Array.concat [ fuzz; built; examples ];
      shipped := Array.length built + Array.length examples
    in
    let round () =
      let r = map ctx ~op:"bench.program" lint_program !inputs in
      if !first = [||] then first := r;
      Array.iteri
        (fun i (v, _) ->
          (match !inputs.(i) with
          | Text _ ->
            Span.count "frontend.programs" 1.;
            if Result.is_error v then Span.count "frontend.errors" 1.
          | Built _ -> ());
          match v with
          | Error _ -> ()
          | Ok cells ->
            List.iter
              (fun c ->
                Span.count "analysis.checks_run" (float_of_int c.checks_run);
                Span.count "analysis.diags" (float_of_int (List.length c.diags));
                Span.count "analysis.errors" (float_of_int (An.Diag.error_count c.diags)))
              cells;
            if errors cells > 0 then Span.count "analysis.error_programs" 1.)
        r;
      let failed = Array.fold_left (fun a (v, _) -> a + Bool.to_int (Result.is_error v)) 0 r in
      {
        ops = Array.length r;
        failed;
        latencies = latencies r;
        digest =
          lazy
            (hex
               (String.concat "\n"
                  (Array.to_list r
                  |> List.map (fun (v, _) ->
                         match v with
                         | Error e -> Printexc.to_string e
                         | Ok cells ->
                           String.concat ";"
                             (List.map
                                (fun c ->
                                  Printf.sprintf "%h:%s" c.avf
                                    (String.concat "," (List.map An.Diag.key c.diags)))
                                cells)))));
      }
    in
    let checks () =
      let n = Array.length !first in
      let clean i =
        match fst !first.(i) with Ok cells -> errors cells = 0 | Error _ -> false
      in
      [
        ( "suite kernels and examples lint clean",
          List.for_all clean (List.init !shipped (fun k -> n - 1 - k)) );
      ]
    in
    { setup; round; checks }
  in
  { name = "lint"; tail = 0.99; make }

(* ------------------------------------------------------------------ *)
(* campaign_*: snapshot-forked fault campaigns at the campaign operating
   point (turnpike, scale 2). *)

(* Fork speedup under 3x in the recorded campaign-replay bench: long
   forked suffixes. *)
let chase_kernels = [ "mcf@2006"; "mcf@2017"; "omnetpp@2006"; "astar@2006"; "radiosity@splash3" ]

type golden = {
  compiled : PP.t;
  final : Interp.state;
  faults : Fault.t array;
}

let scratch_checked = 16

let campaign ~chase =
  let make ctx =
    let p =
      if ctx.small then { Run.default_params with scale = 1; fuel = 30_000 }
      else { Run.default_params with scale = 2 }
    in
    let per_kernel = if ctx.small then 6 else if chase then 1000 else 600 in
    let benches =
      Suite.all ()
      |> List.filter (fun b -> List.mem (Suite.qualified_name b) chase_kernels = chase)
      |> List.filteri (fun i _ -> (not ctx.small) || i < 2)
      |> Array.of_list
    in
    let goldens = ref [||] in
    let first = ref [||] in
    let setup () =
      goldens :=
        setup_each
          (fun b ->
            let prog = build ~scale:p.scale b in
            let opts = Scheme.compile_opts Scheme.turnpike ~sb_size:p.sb_size in
            let compiled = span "compiler.compile" (fun () -> PP.compile ~opts prog) in
            let trace, final =
              span "ir.trace" (fun () -> Interp.trace_run ~fuel:p.fuel compiled.PP.prog)
            in
            Span.count "ir.trace_events" (float_of_int (Trace.length trace));
            count_static compiled.PP.stats;
            if not trace.Trace.complete then
              failwith (Suite.qualified_name b ^ ": golden trace incomplete");
            let faults =
              span "resilience.fault_list" (fun () ->
                  Injector.campaign ~seed:ctx.seed ~count:per_kernel trace)
            in
            { compiled; final; faults = Array.of_list faults })
          benches
    in
    let round () =
      let plans =
        map ctx ~op:"bench.pilot"
          (fun g -> span "resilience.pilot" (fun () -> Snapshot.record g.compiled))
          !goldens
      in
      let plans = Array.map get plans in
      let tasks =
        Array.concat
          (Array.to_list (Array.mapi (fun k g -> Array.map (fun f -> (k, f)) g.faults) !goldens))
      in
      let r =
        map ctx ~op:"bench.fault"
          (fun (k, fault) ->
            let g = !goldens.(k) in
            span "resilience.fork" (fun () ->
                Verifier.run_one ~plan:plans.(k) ~golden:g.final ~compiled:g.compiled fault))
          tasks
      in
      let outcomes =
        Array.map
          (function
            | Ok o, _ -> o
            | Error e, _ -> Verifier.Crashed { reason = Printexc.to_string e })
          r
      in
      let off = ref 0 in
      let per_kernel =
        Array.map
          (fun g ->
            let n = Array.length g.faults in
            off := !off + n;
            Array.sub outcomes (!off - n) n)
          !goldens
      in
      if !first = [||] then first := per_kernel;
      if Span.recording () then begin
        Array.iteri
          (fun k g ->
            let steps = Hashtbl.create 64 in
            Array.iter
              (fun (f : Fault.t) ->
                Hashtbl.replace steps
                  (Recovery.snapshot_step (Snapshot.nearest plans.(k) ~step:f.Fault.at_step))
                  ())
              g.faults;
            Span.count "resilience.snapshots_used" (float_of_int (Hashtbl.length steps));
            Span.count "resilience.snapshots" (float_of_int (Snapshot.snapshot_count plans.(k))))
          !goldens;
        let all = Array.to_list outcomes in
        List.iter (fun o -> Span.count ("resilience." ^ Verifier.class_name o) 1.) all;
        Span.count "resilience.faults" (float_of_int (List.length all));
        Span.set "resilience.mean_reexec_overhead"
          (Verifier.reduce all).Verifier.mean_reexec_overhead
      end;
      (* An SDC or crashed fault is a failed op. *)
      let recovered = function Verifier.Recovered _ -> true | Verifier.Sdc _ | Verifier.Crashed _ -> false in
      {
        ops = Array.length r;
        failed = Array.fold_left (fun a o -> a + Bool.to_int (not (recovered o))) 0 outcomes;
        latencies =
          Array.map2 (fun o (_, d) -> if recovered o then d else Float.infinity) outcomes r;
        digest =
          lazy
            (hex
               (String.concat "\n"
                  (Array.to_list per_kernel
                  |> List.map (fun o ->
                         let c = Verifier.reduce (Array.to_list o) in
                         Printf.sprintf "%d %d %d %d %d %d %h" c.Verifier.total c.recovered
                           c.sdc c.crashed c.parity_detections c.sensor_detections
                           c.mean_reexec_overhead))));
      }
    in
    let checks () =
      let tasks =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun k g ->
                  Array.init (min scratch_checked (Array.length g.faults)) (fun j -> (k, j)))
                !goldens))
      in
      let scratch =
        Turnpike_parallel.map ~jobs:ctx.jobs
          (fun (k, j) ->
            let g = !goldens.(k) in
            Verifier.run_one ~golden:g.final ~compiled:g.compiled g.faults.(j)
            = !first.(k).(j))
          tasks
      in
      [
        ( Printf.sprintf "first %d faults per kernel: fork = from-scratch" scratch_checked,
          Array.for_all Fun.id scratch );
      ]
    in
    { setup; round; checks }
  in
  { name = (if chase then "campaign_chase" else "campaign_reconv"); tail = 0.99; make }

(* ------------------------------------------------------------------ *)
(* explore: successive halving over the default 64-point grid. *)

let explore =
  let make ctx =
    (* The explorer fans out internally on the pool's default width. *)
    Turnpike_parallel.set_default_jobs ctx.jobs;
    let spec, params =
      if ctx.small then (DP.tiny_spec, { Run.default_params with scale = 1; fuel = 20_000 })
      else (DP.default_spec, Run.default_params)
    in
    let benches = ref [] in
    (* The explorer's programs are built here, at every rung's scale, as
       the other workloads build theirs; the round hands them over through
       the entries' [build]. *)
    let setup () =
      let scales = List.sort_uniq compare (List.map (fun b -> b.Explore.scale) (Explore.budgets_for params)) in
      benches :=
        Array.to_list
          (setup_each
             (fun (b : Suite.entry) ->
               let built = List.map (fun scale -> (scale, build ~scale b)) scales in
               {
                 b with
                 Suite.build =
                   (fun ~scale ->
                     match List.assoc_opt scale built with
                     | Some prog -> prog
                     | None -> b.Suite.build ~scale);
               })
             (Array.of_list (Explore.default_benches ())))
    in
    let round () =
      let words () =
        let s = Gc.quick_stat () in
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
      in
      let w0 = words () in
      let report, dt =
        Span.op "bench.explore" (fun () ->
            span "core.clear_cache" Run.clear_cache;
            span "core.explore" (fun () ->
                Explore.run ~benches:!benches ~seed:ctx.seed ~params ~spec ()))
      in
      (* The explorer allocates on pool domains too; the process-wide
         counter sees them all. *)
      Span.count "core.alloc_words" (words () -. w0);
      List.iter
        (fun (label, n) -> Span.count ("core.evals_" ^ label) (float_of_int n))
        report.Explore.evals_per_budget;
      Span.set "core.frontier_size" (float_of_int (List.length report.Explore.frontier));
      let ok = report.Explore.validated in
      {
        ops = 1;
        failed = Bool.to_int (not ok);
        latencies = [| (if ok then dt else Float.infinity) |];
        digest =
          lazy
            (hex
               (String.concat "\n"
                  (List.map
                     (fun (r : Explore.point_result) ->
                       DP.id r.Explore.point ^ " "
                       ^ String.concat " "
                           (Array.to_list
                              (Array.map (Printf.sprintf "%h")
                                 (Explore.objective_vector r.Explore.objectives))))
                     report.Explore.frontier)));
      }
    in
    (* A frontier that fails re-validation is a failed op; equal hashes
       across rounds are the check. *)
    { setup; round; checks = (fun () -> []) }
  in
  { name = "explore"; tail = 1.0; make }

let all = [ sweep; lint; campaign ~chase:false; campaign ~chase:true; explore ]
let find name = List.find_opt (fun w -> w.name = name) all
