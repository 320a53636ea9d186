(* AVF-style vulnerability attribution over fault campaigns (Mukherjee et
   al., MICRO 2003 methodology, adapted to the register/step fault model):
   every fault of a campaign carries its forensic lifecycle trace (one
   telemetry sink per fault, task = fault index), and the per-fault
   outcomes are folded into vulnerability histograms keyed by static
   instruction site, struck register and static region, derated by class —
   masked and detected-recovered faults contribute nothing to
   vulnerability; SDCs and crashes are the architecture-visible failures.

   Everything here is deterministic: records are built in fault order,
   tables sort by (failures, vulnerability, total, key), and the merged
   event stream concatenates per-fault sinks in task order — byte-identical
   at any --jobs count and across snapshot-forked vs --scratch replays. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry
module Histogram = Turnpike_telemetry.Histogram
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Claims = Turnpike_compiler.Claims

type clazz = Masked | Detected | Sdc | Crashed

let classify = function
  | Verifier.Recovered { detections = []; _ } -> Masked
  | Verifier.Recovered _ -> Detected
  | Verifier.Sdc _ -> Sdc
  | Verifier.Crashed _ -> Crashed

let clazz_name = function
  | Masked -> "masked"
  | Detected -> "detected"
  | Sdc -> "sdc"
  | Crashed -> "crashed"

(* One distilled per-fault record: the verdict plus the landmarks of the
   lifecycle trace (absent when the strike never landed). *)
type record = {
  index : int;
  fault : Fault.t;
  clazz : clazz;
  outcome : Verifier.outcome;
  site : string option; (* "block:index" of the strike *)
  region : int option; (* open static region id at the strike *)
  detect_kind : string option;
  detect_latency : int option; (* fault-free positions from strike *)
  rewind : int option; (* positions discarded by the first rollback *)
  events : Telemetry.event list;
  dropped : int; (* sink overflow — surfaced, never silent *)
}

let find_event name events =
  List.find_opt (fun (e : Telemetry.event) -> e.Telemetry.name = name) events

let str_arg key (e : Telemetry.event) =
  match List.assoc_opt key e.Telemetry.args with
  | Some (Telemetry.Str s) -> Some s
  | _ -> None

let int_arg key (e : Telemetry.event) =
  match List.assoc_opt key e.Telemetry.args with
  | Some (Telemetry.Int i) -> Some i
  | _ -> None

let record_of ~index ~fault ~outcome sink =
  let events = Telemetry.events sink in
  let strike = find_event "strike" events in
  let detect = find_event "detect" events in
  let rollback = find_event "rollback" events in
  let site =
    Option.bind strike (fun e ->
        match (str_arg "block" e, int_arg "index" e) with
        | Some b, Some i -> Some (Printf.sprintf "%s:%d" b i)
        | _ -> None)
  in
  {
    index;
    fault;
    clazz = classify outcome;
    outcome;
    site;
    region = Option.bind strike (int_arg "region");
    detect_kind = Option.bind detect (str_arg "kind");
    detect_latency = Option.bind detect (int_arg "latency");
    rewind = Option.bind rollback (int_arg "rewind");
    events;
    dropped = Telemetry.dropped sink;
  }

(* ------------------------------------------------------------------ *)
(* Attribution. *)

type counts = { masked : int; detected : int; sdc : int; crashed : int }

let zero_counts = { masked = 0; detected = 0; sdc = 0; crashed = 0 }

let counts_total c = c.masked + c.detected + c.sdc + c.crashed

let failures c = c.sdc + c.crashed

(* AVF derating: the fraction of this bin's faults that became
   architecture-visible failures. *)
let vulnerability c =
  let t = counts_total c in
  if t = 0 then 0.0 else float_of_int (failures c) /. float_of_int t

type row = { key : string; counts : counts }

type table = row list

(* Per-class histograms over one attribution axis; the readout pivots the
   four histograms into ranked rows. *)
type bins = {
  h_masked : Histogram.t;
  h_detected : Histogram.t;
  h_sdc : Histogram.t;
  h_crashed : Histogram.t;
}

let bins_create () =
  {
    h_masked = Histogram.create ();
    h_detected = Histogram.create ();
    h_sdc = Histogram.create ();
    h_crashed = Histogram.create ();
  }

let bins_add b clazz key =
  Histogram.add
    (match clazz with
    | Masked -> b.h_masked
    | Detected -> b.h_detected
    | Sdc -> b.h_sdc
    | Crashed -> b.h_crashed)
    key

(* Most dangerous first: failure count, then vulnerability, then sheer
   exposure, then the key under the natural order the static tables use
   too (site order, then register id) — a total, deterministic order
   shared with [Turnpike_analysis.Vuln] so report --compare-static
   diffs cannot depend on sort incidentals. *)
let rank rows =
  List.sort
    (fun a b ->
      let va = vulnerability a.counts and vb = vulnerability b.counts in
      let c =
        compare
          (-failures a.counts, -.va, -counts_total a.counts)
          (-failures b.counts, -.vb, -counts_total b.counts)
      in
      if c <> 0 then c else Turnpike_analysis.Rank.key_compare a.key b.key)
    rows

let bins_table b =
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun h -> List.map fst (Histogram.to_list h))
         [ b.h_masked; b.h_detected; b.h_sdc; b.h_crashed ])
  in
  rank
    (List.map
       (fun key ->
         {
           key;
           counts =
             {
               masked = Histogram.count b.h_masked key;
               detected = Histogram.count b.h_detected key;
               sdc = Histogram.count b.h_sdc key;
               crashed = Histogram.count b.h_crashed key;
             };
         })
       keys)

type summary = {
  rung : string; (* compiler rung / scheme label the campaign ran under *)
  total : int;
  landed : int; (* strikes that actually hit before program exit *)
  by_class : counts;
  by_site : table;
  by_register : table;
  by_region : table;
  mean_detect_latency : float;
  mean_rewind : float;
  dropped_events : int;
}

let summarize ?(rung = "") records =
  let site_bins = bins_create () in
  let reg_bins = bins_create () in
  let region_bins = bins_create () in
  let by_class = ref zero_counts in
  let landed = ref 0 in
  let lat_sum = ref 0 and lat_n = ref 0 in
  let rew_sum = ref 0 and rew_n = ref 0 in
  let dropped = ref 0 in
  List.iter
    (fun r ->
      by_class :=
        (match r.clazz with
        | Masked -> { !by_class with masked = !by_class.masked + 1 }
        | Detected -> { !by_class with detected = !by_class.detected + 1 }
        | Sdc -> { !by_class with sdc = !by_class.sdc + 1 }
        | Crashed -> { !by_class with crashed = !by_class.crashed + 1 });
      (* The struck register is known whether or not the strike landed. *)
      bins_add reg_bins r.clazz (Reg.to_string r.fault.Fault.reg);
      (match r.site with
      | Some s ->
        incr landed;
        bins_add site_bins r.clazz s
      | None -> ());
      (match r.region with
      | Some id -> bins_add region_bins r.clazz (string_of_int id)
      | None -> ());
      (match r.detect_latency with
      | Some l when l >= 0 ->
        lat_sum := !lat_sum + l;
        incr lat_n
      | Some _ | None -> ());
      (match r.rewind with
      | Some w ->
        rew_sum := !rew_sum + w;
        incr rew_n
      | None -> ());
      dropped := !dropped + r.dropped)
    records;
  let mean sum n = if n = 0 then 0.0 else float_of_int sum /. float_of_int n in
  {
    rung;
    total = List.length records;
    landed = !landed;
    by_class = !by_class;
    by_site = bins_table site_bins;
    by_register = bins_table reg_bins;
    by_region = bins_table region_bins;
    mean_detect_latency = mean !lat_sum !lat_n;
    mean_rewind = mean !rew_sum !rew_n;
    dropped_events = !dropped;
  }

(* ------------------------------------------------------------------ *)
(* Campaign glue: [campaign] runs the one campaign driver,
   [Verifier.run_campaign], with one sink per fault (task = fault index)
   and builds records in fault order after the parallel fan-out. *)

let merged_events records =
  List.concat_map (fun r -> r.events) records

let total_dropped records =
  List.fold_left (fun acc r -> acc + r.dropped) 0 records

(* Only the consumed prefix has outcomes; under a stopping rule the
   unconsumed tail's sinks stay empty and are not turned into records. *)
let campaign ?jobs ?config ?plan ?stopping ?tel ~golden ~compiled faults =
  let arr = Array.of_list faults in
  let sinks = Array.mapi (fun i _ -> Telemetry.create ~task:i ()) arr in
  let c =
    Verifier.run_campaign ?jobs ?config ?plan ?stopping ?tel
      ~sink_for:(Array.get sinks) ~golden ~compiled faults
  in
  let records =
    List.mapi
      (fun i outcome -> record_of ~index:i ~fault:arr.(i) ~outcome sinks.(i))
      c.Verifier.outcomes
  in
  (records, c)

(* ------------------------------------------------------------------ *)
(* Serialization. *)

let record_to_json r =
  Printf.sprintf
    "{\"index\":%d,\"fault\":%s,\"class\":\"%s\",\"site\":%s,\"region\":%s,\"outcome\":%s}"
    r.index (Fault.to_json r.fault) (clazz_name r.clazz)
    (match r.site with
    | Some s -> Printf.sprintf "\"%s\"" (Telemetry.Export.escape s)
    | None -> "null")
    (match r.region with Some i -> string_of_int i | None -> "null")
    (Verifier.outcome_to_json r.outcome)

let counts_to_json c =
  Printf.sprintf "{\"masked\":%d,\"detected\":%d,\"sdc\":%d,\"crashed\":%d}"
    c.masked c.detected c.sdc c.crashed

let table_to_json t =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"key\":\"%s\",\"counts\":%s,\"vulnerability\":%.6f}"
             (Telemetry.Export.escape r.key)
             (counts_to_json r.counts) (vulnerability r.counts))
         t)
  ^ "]"

let summary_to_json s =
  Printf.sprintf
    "{\"rung\":\"%s\",\"total\":%d,\"landed\":%d,\"by_class\":%s,\"mean_detect_latency\":%.6f,\"mean_rewind\":%.6f,\"dropped_events\":%d,\"by_site\":%s,\"by_register\":%s,\"by_region\":%s}"
    (Telemetry.Export.escape s.rung)
    s.total s.landed (counts_to_json s.by_class) s.mean_detect_latency
    s.mean_rewind s.dropped_events (table_to_json s.by_site)
    (table_to_json s.by_register)
    (table_to_json s.by_region)

(* ------------------------------------------------------------------ *)
(* The dropped-checkpoint compiler mutant (shared with the differential
   tests): deletes every checkpoint of one recoverable live-in register
   and wipes the pipeline's claims, modelling a pruning bug. Restarts into
   a region that carried the victim live-in then restore a stale value, so
   the campaign's region attribution convicts exactly those regions — the
   [report] CLI uses it to demonstrate localization against ground truth. *)

let drop_checkpoint_mutant (c : Pass_pipeline.t) =
  let f = c.Pass_pipeline.prog.Prog.func in
  let def_count r =
    Func.fold_instrs
      (fun acc i -> if List.mem r (Instr.defs i) then acc + 1 else acc)
      0 f
  in
  let victim =
    Array.to_list c.Pass_pipeline.regions
    |> List.concat_map (fun (ri : Pass_pipeline.region_info) ->
           if ri.Pass_pipeline.id > 0 then ri.Pass_pipeline.live_in else [])
    |> List.find_opt (fun r ->
           def_count r > 0
           && Func.fold_instrs
                (fun acc i ->
                  if Instr.equal i (Instr.Ckpt r) then acc + 1 else acc)
                0 f
              > 0)
  in
  match victim with
  | None -> None
  | Some victim ->
    Func.iter_blocks
      (fun b ->
        b.Block.body <-
          Array.of_list
            (List.filter
               (fun i -> not (Instr.equal i (Instr.Ckpt victim)))
               (Array.to_list b.Block.body)))
      f;
    let affected =
      Array.to_list c.Pass_pipeline.regions
      |> List.filter_map (fun (ri : Pass_pipeline.region_info) ->
             if ri.Pass_pipeline.id > 0 && List.mem victim ri.Pass_pipeline.live_in
             then Some ri.Pass_pipeline.id
             else None)
      |> List.sort_uniq compare
    in
    Some ({ c with Pass_pipeline.claims = Claims.empty }, victim, affected)
