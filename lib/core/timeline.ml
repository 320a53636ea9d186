(* Deterministic cycle-level timeline capture: run one benchmark under
   every scheme of the ablation ladder, each scheme as one pool task with
   its own telemetry sink (task = ladder index), then merge by (task, seq).

   Only the simulation feeds the sinks, and simulation events are stamped
   with simulated cycles, so each task's event list is a pure function of
   (scheme, benchmark, params). Merge order depends only on the task index,
   never on domain interleaving — the export is byte-identical at any
   [--jobs] count. Wall-clock producers (compile passes, the pool itself)
   are deliberately NOT routed into these sinks. *)

module Telemetry = Turnpike_telemetry
module Suite = Turnpike_workloads.Suite
module Sensor = Turnpike_arch.Sensor

type t = {
  benchmark : string;
  params : Run.params;
  schemes : string list;
  events : Telemetry.event list;
  per_task : int list; (* events per ladder rung, ladder order *)
  dropped : int; (* capacity-overflow events across all rungs *)
}

(* Track names mirror the tid layout of [Turnpike_arch.Timing]. *)
let track_names = [ "regions"; "stalls"; "verify"; "store-buffer"; "clq" ]

let capture ?jobs ?(params = Run.default_params) (bench : Suite.entry) =
  let schemes = Scheme.ladder in
  let sinks =
    Turnpike_parallel.map ?jobs
      (fun (i, scheme) ->
        let tel = Telemetry.create ~task:i () in
        ignore (Run.run_with ~tel params scheme bench);
        tel)
      (Array.of_list (List.mapi (fun i s -> (i, s)) schemes))
  in
  let sinks = Array.to_list sinks in
  {
    benchmark = Suite.qualified_name bench;
    params;
    schemes = List.map (fun (s : Scheme.t) -> s.Scheme.name) schemes;
    events = Telemetry.merge sinks;
    per_task = List.map Telemetry.length sinks;
    dropped = Telemetry.total_dropped sinks;
  }

let process_names t =
  List.mapi (fun i name -> (i, Printf.sprintf "%s/%s" name t.benchmark)) t.schemes

let thread_names t =
  List.concat_map
    (fun (task, _) ->
      List.mapi (fun tid name -> ((task, tid), name)) track_names)
    (process_names t)

let chrome t =
  Telemetry.Export.chrome ~process_names:(process_names t)
    ~thread_names:(thread_names t) ~dropped:t.dropped t.events

let jsonl t = Telemetry.Export.jsonl ~dropped:t.dropped t.events

let sensor_metadata t =
  Sensor.to_json (Sensor.for_wcdl ~wcdl:t.params.Run.wcdl ~clock_ghz:2.5 ())
