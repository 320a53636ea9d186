(* CSV rendering of experiment rows for downstream plotting. Cells are
   numbers or plain identifiers, so no quoting is needed beyond
   comma-freedom (benchmark names contain none). *)

let table ~path cols rows =
  if cols <> [] then begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun fields ->
            output_string oc (String.concat "," fields);
            output_char oc '\n')
          (Report.csv_lines cols rows))
  end

(* ------------------------------------------------------------------ *)
(* Design-space explorer artifacts: the full grid with per-point scores,
   and the Pareto-optimal subset. Both are emitted in
   grid enumeration order, so files are byte-identical at any job count. *)

let explore_columns =
  let o (r : Explore.point_result) = r.Explore.objectives in
  Design_point.columns (fun (r : Explore.point_result) -> r.Explore.point)
  @ Report.
      [
        float "overhead" 0 (fun r -> (o r).Explore.overhead);
        float "area_um2" 0 (fun r -> (o r).Explore.area_um2);
        float "energy_pj_per_kinstr" 0 (fun r -> (o r).Explore.energy_pj_per_kinstr);
        float "sdc_rate" 0 (fun r -> (o r).Explore.sdc_rate);
        int "faults" 0 (fun r -> (o r).Explore.faults);
        str "pareto" 0 (fun r -> string_of_bool r.Explore.on_frontier);
      ]

let explore_grid ~path (report : Explore.report) =
  table ~path explore_columns report.Explore.results

let explore_pareto ~path (report : Explore.report) =
  table ~path explore_columns report.Explore.frontier

(* ------------------------------------------------------------------ *)
(* Forensic campaign artifacts: the per-fault record log and one ranked
   attribution table per key (site / register / region). Records are in
   fault order and tables in rank order — both total orders, so files are
   byte-identical at any job count and across fork vs scratch replay. *)

module Forensics = Turnpike_resilience.Forensics
module Fault = Turnpike_resilience.Fault

let record_columns =
  let fault (r : Forensics.record) = r.Forensics.fault in
  let opt_int = function Some n -> string_of_int n | None -> "" in
  let opt_str = Option.value ~default:"" in
  Report.
    [
      int "fault" 0 (fun r -> r.Forensics.index);
      str "reg" 0 (fun r -> Turnpike_ir.Reg.to_string (fault r).Fault.reg);
      int "xor_mask" 0 (fun r -> (fault r).Fault.xor_mask);
      int "at_step" 0 (fun r -> (fault r).Fault.at_step);
      str "class" 0 (fun r -> Forensics.clazz_name r.Forensics.clazz);
      str "site" 0 (fun r -> opt_str r.Forensics.site);
      str "region" 0 (fun r -> opt_int r.Forensics.region);
      str "detect_kind" 0 (fun r -> opt_str r.Forensics.detect_kind);
      str "detect_latency" 0 (fun r -> opt_int r.Forensics.detect_latency);
      str "rewind" 0 (fun r -> opt_int r.Forensics.rewind);
      int "dropped_events" 0 (fun r -> r.Forensics.dropped);
    ]

let forensics_columns ~key =
  let counts (r : Forensics.row) = r.Forensics.counts in
  let count ?csv title width get = Report.int ?csv title width (fun r -> get (counts r)) in
  [
    Report.str ~csv:"key" key 24 (fun r -> r.Forensics.key);
    count "total" 6 Forensics.counts_total;
    count "masked" 7 (fun c -> c.Forensics.masked);
    count ~csv:"detected" "detect" 7 (fun c -> c.Forensics.detected);
    count "sdc" 5 (fun c -> c.Forensics.sdc);
    count ~csv:"crashed" "crash" 6 (fun c -> c.Forensics.crashed);
    Report.float ~csv:"vulnerability" ~fmt:(Printf.sprintf "%.3f") "vuln" 7 (fun r ->
        Forensics.vulnerability (counts r));
  ]

let forensics ~dir records (s : Forensics.summary) =
  let path name = Filename.concat dir ("forensics_" ^ name ^ ".csv") in
  table ~path:(path "faults") record_columns records;
  List.iter
    (fun (name, rows) -> table ~path:(path name) (forensics_columns ~key:"key") rows)
    [
      ("by_site", s.Forensics.by_site); ("by_register", s.Forensics.by_register);
      ("by_region", s.Forensics.by_region);
    ]

(* ------------------------------------------------------------------ *)
(* Static vulnerability tables (lint --vuln --csv): one file per axis,
   one column per scheme. Schemes region programs differently, so a key
   present under one scheme may be absent under another; the keyed
   columns render those cells "nan", exactly as in the ladder and WCDL
   sweeps. *)

let vuln_table ~path (rows : Lint.vuln_csv_row list) =
  let lead =
    Report.
      [
        str "benchmark" 0 (fun (r : Lint.vuln_csv_row) -> r.Lint.vr_benchmark);
        str "key" 0 (fun r -> r.Lint.vr_key);
      ]
  in
  table ~path
    (Report.keyed lead (fun r -> r.Lint.vr_by_scheme) (fun s -> Report.float s 0) rows)
    rows

let vuln ~dir (report : Lint.vuln_report) =
  List.iter
    (fun (name, axis) ->
      vuln_table
        ~path:(Filename.concat dir ("vuln_by_" ^ name ^ ".csv"))
        (Lint.vuln_csv_rows ~axis report))
    [ ("site", `Site); ("register", `Register); ("region", `Region) ]
