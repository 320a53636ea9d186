(* CSV rendering of experiment rows for downstream plotting. One file per
   experiment; cells are numbers or plain identifiers, so no quoting is
   needed beyond comma-freedom (benchmark names contain none). *)

let write ~path ~header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows)

let f = Printf.sprintf "%.6f"

let fig4 ~path rows =
  write ~path ~header:[ "benchmark"; "ratio_sb40"; "ratio_sb4" ]
    (List.map
       (fun (r : Experiments.fig4_row) ->
         [ r.Experiments.bench; f r.Experiments.ratio_sb40; f r.Experiments.ratio_sb4 ])
       rows)

let fig14_15 ~path rows =
  write ~path
    ~header:
      [ "benchmark"; "overhead_ideal"; "overhead_compact"; "war_free_ideal";
        "war_free_compact" ]
    (List.map
       (fun (r : Experiments.clq_design_row) ->
         [ r.Experiments.bench; f r.Experiments.overhead_ideal;
           f r.Experiments.overhead_compact; f r.Experiments.war_free_ideal;
           f r.Experiments.war_free_compact ])
       rows)

let fig18 ~path rows =
  write ~path ~header:[ "sensors"; "dl_2_0ghz"; "dl_2_5ghz"; "dl_3_0ghz" ]
    (List.map
       (fun (r : Experiments.fig18_row) ->
         [ string_of_int r.Experiments.sensors; string_of_int r.Experiments.dl_2_0ghz;
           string_of_int r.Experiments.dl_2_5ghz; string_of_int r.Experiments.dl_3_0ghz ])
       rows)

(* Column keys for the sweep exports are collected across ALL rows (in
   first-appearance order), and a row missing a column emits "nan" instead
   of raising — a later row lacking a scheme/WCDL must not lose the file. *)
let columns_of rows keys_of =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
        acc (keys_of r))
    [] rows

let wcdl_sweep ~path rows =
  if rows = [] then ()
  else
  let wcdls =
    columns_of rows (fun r -> List.map fst r.Experiments.overheads)
  in
  write ~path
    ~header:("benchmark" :: List.map (Printf.sprintf "wcdl%d") wcdls)
    (List.map
       (fun (r : Experiments.wcdl_sweep_row) ->
         r.Experiments.bench
         :: List.map
              (fun w ->
                match List.assoc_opt w r.Experiments.overheads with
                | Some ov -> f ov
                | None -> "nan")
              wcdls)
       rows)

let ladder ~path rows =
  if rows = [] then ()
  else
  let names =
    columns_of rows (fun r -> List.map fst r.Experiments.by_scheme)
  in
  write ~path ~header:("benchmark" :: names)
    (List.map
       (fun (r : Experiments.fig21_row) ->
         r.Experiments.bench
         :: List.map
              (fun n ->
                match List.assoc_opt n r.Experiments.by_scheme with
                | Some ov -> f ov
                | None -> "nan")
              names)
       rows)

let fig23 ~path rows =
  write ~path
    ~header:
      [ "benchmark"; "pruned"; "licm"; "colored"; "war_free"; "ra"; "ivm"; "others" ]
    (List.map
       (fun (r : Experiments.fig23_row) ->
         [ r.Experiments.bench; f r.Experiments.pruned;
           f r.Experiments.licm_eliminated; f r.Experiments.colored;
           f r.Experiments.war_free; f r.Experiments.ra_eliminated;
           f r.Experiments.ivm_eliminated; f r.Experiments.others ])
       rows)

let fig26 ~path rows =
  write ~path ~header:[ "benchmark"; "region_size"; "code_increase_pct" ]
    (List.map
       (fun (r : Experiments.fig26_row) ->
         [ r.Experiments.bench; f r.Experiments.region_size;
           f r.Experiments.code_increase_pct ])
       rows)

(* ------------------------------------------------------------------ *)
(* Design-space explorer artifacts: the full grid with per-point scores,
   and the Pareto-optimal subset. Both are emitted in
   grid enumeration order, so files are byte-identical at any job count. *)

let explore_header =
  Design_point.csv_header
  @ [
      "overhead"; "area_um2"; "energy_pj_per_kinstr"; "sdc_rate"; "faults";
      "pareto";
    ]

let explore_row (r : Explore.point_result) =
  let o = r.Explore.objectives in
  Design_point.csv_cells r.Explore.point
  @ [
      f o.Explore.overhead; f o.Explore.area_um2;
      f o.Explore.energy_pj_per_kinstr; f o.Explore.sdc_rate;
      string_of_int o.Explore.faults; string_of_bool r.Explore.on_frontier;
    ]

let explore_grid ~path (report : Explore.report) =
  write ~path ~header:explore_header (List.map explore_row report.Explore.results)

let explore_pareto ~path (report : Explore.report) =
  write ~path ~header:explore_header (List.map explore_row report.Explore.frontier)

(* ------------------------------------------------------------------ *)
(* Forensic campaign artifacts: the per-fault record log and one ranked
   attribution table per key (site / register / region). Records are in
   fault order and tables in rank order — both total orders, so files are
   byte-identical at any job count and across fork vs scratch replay. *)

module Forensics = Turnpike_resilience.Forensics

let opt_str = function Some s -> s | None -> ""
let opt_int = function Some n -> string_of_int n | None -> ""

let forensics_records ~path records =
  write ~path
    ~header:
      [ "fault"; "reg"; "xor_mask"; "at_step"; "class"; "site"; "region";
        "detect_kind"; "detect_latency"; "rewind"; "dropped_events";
      ]
    (List.map
       (fun (r : Forensics.record) ->
         [ string_of_int r.Forensics.index;
           Turnpike_ir.Reg.to_string r.Forensics.fault.Turnpike_resilience.Fault.reg;
           string_of_int r.Forensics.fault.Turnpike_resilience.Fault.xor_mask;
           string_of_int r.Forensics.fault.Turnpike_resilience.Fault.at_step;
           Forensics.clazz_name r.Forensics.clazz; opt_str r.Forensics.site;
           opt_int r.Forensics.region; opt_str r.Forensics.detect_kind;
           opt_int r.Forensics.detect_latency; opt_int r.Forensics.rewind;
           string_of_int r.Forensics.dropped;
         ])
       records)

let forensics_table ~path table =
  write ~path
    ~header:
      [ "key"; "total"; "masked"; "detected"; "sdc"; "crashed";
        "vulnerability";
      ]
    (List.map
       (fun (r : Forensics.row) ->
         let c = r.Forensics.counts in
         [ r.Forensics.key; string_of_int (Forensics.counts_total c);
           string_of_int c.Forensics.masked; string_of_int c.Forensics.detected;
           string_of_int c.Forensics.sdc; string_of_int c.Forensics.crashed;
           f (Forensics.vulnerability c);
         ])
       table)

(* ------------------------------------------------------------------ *)
(* Static vulnerability tables (lint --vuln --csv): one file per axis,
   one column per scheme. Schemes region programs differently, so a key
   present under one scheme may be absent under another; [columns_of]'s
   missing-cell tolerance renders those "nan" exactly as in the
   ladder/wcdl sweeps. *)

let vuln_table ~path (rows : Lint.vuln_csv_row list) =
  if rows = [] then ()
  else
    let schemes = columns_of rows (fun r -> List.map fst r.Lint.vr_by_scheme) in
    write ~path
      ~header:([ "benchmark"; "key" ] @ schemes)
      (List.map
         (fun (r : Lint.vuln_csv_row) ->
           r.Lint.vr_benchmark :: r.Lint.vr_key
           :: List.map
                (fun s ->
                  match List.assoc_opt s r.Lint.vr_by_scheme with
                  | Some score -> f score
                  | None -> "nan")
                schemes)
         rows)

let vuln ~dir (report : Lint.vuln_report) =
  vuln_table
    ~path:(Filename.concat dir "vuln_by_site.csv")
    (Lint.vuln_csv_rows ~axis:`Site report);
  vuln_table
    ~path:(Filename.concat dir "vuln_by_register.csv")
    (Lint.vuln_csv_rows ~axis:`Register report);
  vuln_table
    ~path:(Filename.concat dir "vuln_by_region.csv")
    (Lint.vuln_csv_rows ~axis:`Region report)

let forensics ~dir records (s : Forensics.summary) =
  forensics_records ~path:(Filename.concat dir "forensics_faults.csv") records;
  forensics_table ~path:(Filename.concat dir "forensics_by_site.csv")
    s.Forensics.by_site;
  forensics_table
    ~path:(Filename.concat dir "forensics_by_register.csv")
    s.Forensics.by_register;
  forensics_table ~path:(Filename.concat dir "forensics_by_region.csv")
    s.Forensics.by_region
