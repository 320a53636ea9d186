(* The resilience soundness lint over the (benchmark × scheme) grid.

   Compiles are issued fresh (never through the Run cache: cached binaries
   were compiled with checking off and carry no diagnostics) and fan out
   over the Parallel pool; results come back in task order, so the report
   is identical at any job count. *)

module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Machine = Turnpike_arch.Machine
module Clq = Turnpike_arch.Clq
module Analysis = Turnpike_analysis
module Suite = Turnpike_workloads.Suite
module Diag = Turnpike_analysis.Diag

type entry = {
  benchmark : string;
  scheme : string;
  diags : Diag.t list;
  check_log : (string * string list) list;
}

type report = {
  per_pass : bool;
  entries : entry list;
  errors : int;
  warnings : int;
  infos : int;
}

(* The analysis context of [compiled] with the scheme's machine grafted
   on: RBB depth, compact-CLQ size and WCDL, which the capacity checks and
   the vulnerability model read. *)
let machine_context (scheme : Scheme.t) ~wcdl ~sb_size compiled =
  let machine = Scheme.machine scheme ~wcdl ~sb_size in
  Analysis.Context.with_machine ~rbb_size:machine.Machine.rbb_size
    ?clq_entries:
      (match machine.Machine.clq with
      | Some (Clq.Compact n) -> Some n
      | Some Clq.Ideal | None -> None)
    ~wcdl:machine.Machine.wcdl
    (Pass_pipeline.analysis_context compiled)

let lint_cell ?(per_pass = false) ?(full_recheck = false) ?(sb_size = 4)
    ?(scale = Run.default_scale) (scheme : Scheme.t) (bench : Suite.entry) =
  let prog = bench.Suite.build ~scale in
  let opts = Scheme.compile_opts scheme ~sb_size in
  let check =
    if not per_pass then Pass_pipeline.Final
    else if full_recheck then Pass_pipeline.PerPassFull
    else Pass_pipeline.PerPass
  in
  let compiled = Pass_pipeline.compile ~opts ~check prog in
  (* The pipeline knows nothing of the machine; graft the scheme's RBB
     depth and CLQ size on and rerun the registry for the capacity checks
     that want them. Findings already attributed to a pass keep their
     provenance — the machine pass only contributes what is new. *)
  let ctx = machine_context scheme ~wcdl:10 ~sb_size compiled in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d -> Hashtbl.replace seen (Diag.key d) ())
    compiled.Pass_pipeline.diags;
  let extra =
    Analysis.Registry.fresh ~seen (Analysis.Registry.run_whole ctx)
  in
  ( Diag.sort (compiled.Pass_pipeline.diags @ extra),
    compiled.Pass_pipeline.check_log )

let run ?(per_pass = false) ?full_recheck ?sb_size ?scale ?jobs ~schemes
    benches =
  let cells =
    List.concat_map
      (fun b -> List.map (fun s -> (b, s)) schemes)
      benches
  in
  let entries =
    Turnpike_parallel.map_list ?jobs
      (fun ((b : Suite.entry), (s : Scheme.t)) ->
        let diags, check_log =
          lint_cell ~per_pass ?full_recheck ?sb_size ?scale s b
        in
        {
          benchmark = Suite.qualified_name b;
          scheme = s.Scheme.name;
          diags;
          check_log;
        })
      cells
  in
  let count sev =
    List.fold_left
      (fun acc e ->
        acc
        + List.length
            (List.filter (fun (d : Diag.t) -> d.Diag.severity = sev) e.diags))
      0 entries
  in
  {
    per_pass;
    entries;
    errors = count Diag.Error;
    warnings = count Diag.Warn;
    infos = count Diag.Info;
  }

let max_severity r =
  Diag.max_severity (List.concat_map (fun e -> e.diags) r.entries)

let to_text ?(explain = false) r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      if explain && e.check_log <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "%s / %s: per-pass check schedule\n" e.benchmark
             e.scheme);
        List.iter
          (fun (pass, ran) ->
            Buffer.add_string buf
              (Printf.sprintf "  %-26s %s\n" pass
                 (if ran = [] then "(all clean; every check skipped)"
                  else String.concat " " ran)))
          e.check_log
      end;
      if e.diags <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "%s / %s:\n" e.benchmark e.scheme);
        List.iter
          (fun d ->
            Buffer.add_string buf "  ";
            Buffer.add_string buf (Diag.to_string d);
            Buffer.add_char buf '\n')
          e.diags
      end)
    r.entries;
  Buffer.add_string buf
    (Printf.sprintf "lint: %d cells checked%s: %d error(s), %d warning(s), %d info\n"
       (List.length r.entries)
       (if r.per_pass then " (per-pass)" else "")
       r.errors r.warnings r.infos);
  Buffer.contents buf

(* ------------- static vulnerability report (lint --vuln) ------------- *)

type vuln_entry = {
  v_benchmark : string;
  v_scheme : string;
  vuln : Analysis.Vuln.t;
}

type vuln_report = { ventries : vuln_entry list }

let vuln_cell ?(sb_size = 4) ?(scale = Run.default_scale) ?(wcdl = 10)
    (scheme : Scheme.t) (bench : Suite.entry) =
  let prog = bench.Suite.build ~scale in
  let opts = Scheme.compile_opts scheme ~sb_size in
  let compiled = Pass_pipeline.compile ~opts prog in
  Analysis.Vuln.compute (machine_context scheme ~wcdl ~sb_size compiled)

let run_vuln ?sb_size ?scale ?wcdl ?jobs ~schemes benches =
  let cells =
    List.concat_map (fun b -> List.map (fun s -> (b, s)) schemes) benches
  in
  let ventries =
    Turnpike_parallel.map_list ?jobs
      (fun ((b : Suite.entry), (s : Scheme.t)) ->
        {
          v_benchmark = Suite.qualified_name b;
          v_scheme = s.Scheme.name;
          vuln = vuln_cell ?sb_size ?scale ?wcdl s b;
        })
      cells
  in
  { ventries }

let vuln_to_text ?(top = 8) r =
  let buf = Buffer.create 1024 in
  let table title rows =
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "  %s\n" title);
      Buffer.add_string buf
        (Printf.sprintf "    %-24s %10s %10s\n" "key" "exposure" "score");
      List.iteri
        (fun i (row : Analysis.Vuln.row) ->
          if i < top then
            Buffer.add_string buf
              (Printf.sprintf "    %-24s %10.2f %10.4f\n" row.Analysis.Vuln.key
                 row.Analysis.Vuln.exposure row.Analysis.Vuln.score))
        rows
    end
  in
  List.iter
    (fun e ->
      let v = e.vuln in
      Buffer.add_string buf
        (Printf.sprintf
           "%s / %s: predicted AVF %.6f (mass %.0f, wcdl %d, %d coverage gap(s))\n"
           e.v_benchmark e.v_scheme v.Analysis.Vuln.predicted_avf
           v.Analysis.Vuln.total_mass v.Analysis.Vuln.wcdl
           (List.length v.Analysis.Vuln.gaps));
      table "most vulnerable regions (static)" v.Analysis.Vuln.by_region;
      table "most vulnerable registers (static)" v.Analysis.Vuln.by_register;
      table "most vulnerable sites (static)" v.Analysis.Vuln.by_site)
    r.ventries;
  Buffer.add_string buf
    (Printf.sprintf "vuln: %d cells analyzed statically (no faults injected)\n"
       (List.length r.ventries));
  Buffer.contents buf

let vuln_to_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"benchmark\":\"%s\",\"scheme\":\"%s\",\"vuln\":%s}"
           (Diag.json_escape e.v_benchmark)
           (Diag.json_escape e.v_scheme)
           (Analysis.Vuln.to_json e.vuln)))
    r.ventries;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* Rows for Csv_export: per (benchmark, key), the score under every
   scheme that ranks the key at all — schemes partition programs into
   different regions, so missing cells are expected and the writer's
   missing-column tolerance renders them "nan". *)
type vuln_csv_row = {
  vr_benchmark : string;
  vr_key : string;
  vr_by_scheme : (string * float) list;
}

let vuln_csv_rows ~axis r =
  let table_of (e : vuln_entry) =
    match axis with
    | `Site -> e.vuln.Analysis.Vuln.by_site
    | `Register -> e.vuln.Analysis.Vuln.by_register
    | `Region -> e.vuln.Analysis.Vuln.by_region
  in
  let benches =
    List.fold_left
      (fun acc e ->
        if List.mem e.v_benchmark acc then acc else acc @ [ e.v_benchmark ])
      [] r.ventries
  in
  List.concat_map
    (fun bench ->
      let es = List.filter (fun e -> e.v_benchmark = bench) r.ventries in
      let keys =
        List.fold_left
          (fun acc e ->
            List.fold_left
              (fun acc (row : Analysis.Vuln.row) ->
                if List.mem row.Analysis.Vuln.key acc then acc
                else acc @ [ row.Analysis.Vuln.key ])
              acc (table_of e))
          [] es
      in
      List.map
        (fun key ->
          {
            vr_benchmark = bench;
            vr_key = key;
            vr_by_scheme =
              List.filter_map
                (fun e ->
                  Option.map
                    (fun (row : Analysis.Vuln.row) ->
                      (e.v_scheme, row.Analysis.Vuln.score))
                    (List.find_opt
                       (fun (row : Analysis.Vuln.row) ->
                         String.equal row.Analysis.Vuln.key key)
                       (table_of e)))
                es;
          })
        keys)
    benches

let to_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"per_pass\":%b,\"checks\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"entries\":["
       r.per_pass
       (String.concat ","
          (List.map
             (fun n -> Printf.sprintf "\"%s\"" (Diag.json_escape n))
             Analysis.Registry.names))
       r.errors r.warnings r.infos);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"benchmark\":\"%s\",\"scheme\":\"%s\",\"diags\":[%s]}"
           (Diag.json_escape e.benchmark)
           (Diag.json_escape e.scheme)
           (String.concat "," (List.map Diag.to_json e.diags))))
    r.entries;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
