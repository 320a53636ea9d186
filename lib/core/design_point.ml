(* One point of the cross-layer design space: every knob the explorer
   sweeps, with lowerings to the timing machine model (either core) and to
   the functional recovery executor (for fault campaigns). *)

module Machine = Turnpike_arch.Machine
module Machine_model = Turnpike_arch.Machine_model
module Ooo = Turnpike_arch.Ooo_timing
module Clq = Turnpike_arch.Clq
module Sensor = Turnpike_arch.Sensor
module Recovery = Turnpike_resilience.Recovery

type core = In_order | Out_of_order

let core_name = function In_order -> "inorder" | Out_of_order -> "ooo"

type t = {
  core : core;
  sb_entries : int;
  clq_entries : int;
  color_bits : int;
  sensors : int;
  rung : Scheme.t;
}

let id p =
  Printf.sprintf "%s/sb%d/clq%d/cb%d/s%d/%s" (core_name p.core) p.sb_entries
    p.clq_entries p.color_bits p.sensors p.rung.Scheme.name

(* The paper's operating point: 2.5GHz clock, 1mm^2 die. *)
let clock_ghz = 2.5

let wcdl p = Sensor.wcdl (Sensor.create ~num_sensors:p.sensors ~clock_ghz ())

let clq_design p = if p.clq_entries <= 0 then None else Some (Clq.Compact p.clq_entries)

let machine_model p =
  let wcdl = wcdl p in
  match p.core with
  | In_order ->
    let m =
      {
        Machine.baseline with
        Machine.name = id p;
        sb_size = p.sb_entries;
        wcdl;
        verification = p.rung.Scheme.resilient;
        clq = clq_design p;
      }
    in
    Machine_model.In_order (Machine.with_color_bits m p.color_bits)
  | Out_of_order ->
    Machine_model.Out_of_order
      {
        Ooo.default_config with
        Ooo.sb_size = p.sb_entries;
        wcdl;
        verification = p.rung.Scheme.resilient;
      }

let baseline_model p =
  match p.core with
  | In_order ->
    Machine_model.In_order { Machine.baseline with Machine.sb_size = p.sb_entries }
  | Out_of_order ->
    Machine_model.Out_of_order
      { Ooo.default_config with Ooo.sb_size = p.sb_entries; verification = false }

let recovery_config p =
  {
    Recovery.default_config with
    Recovery.verify_delay = wcdl p;
    coloring = p.color_bits > 0;
    clq = clq_design p;
  }

(* ------------------------------------------------------------------ *)

type spec = {
  cores : core list;
  sb_entries : int list;
  clq_entries : int list;
  color_bits : int list;
  sensors : int list;
  rungs : Scheme.t list;
}

let default_spec =
  {
    cores = [ In_order; Out_of_order ];
    sb_entries = [ 4; 8 ];
    clq_entries = [ 0; 2 ];
    color_bits = [ 0; 2 ];
    sensors = [ 100; 300 ];
    rungs = [ Scheme.turnstile; Scheme.turnpike ];
  }

let tiny_spec =
  {
    cores = [ In_order; Out_of_order ];
    sb_entries = [ 4 ];
    clq_entries = [ 2 ];
    color_bits = [ 2 ];
    sensors = [ 300 ];
    rungs = [ Scheme.turnstile; Scheme.turnpike ];
  }

let wide_spec =
  {
    cores = [ In_order; Out_of_order ];
    sb_entries = [ 4; 8; 16 ];
    clq_entries = [ 0; 2; 4 ];
    color_bits = [ 0; 1; 2 ];
    sensors = [ 100; 200; 300 ];
    rungs = [ Scheme.turnstile; Scheme.fast_release; Scheme.turnpike ];
  }

let grid spec =
  (* Cartesian product in axis order, cores-major and rungs-minor: the
     canonical enumeration order of every explorer artifact. *)
  List.concat_map
    (fun core ->
      List.concat_map
        (fun sb_entries ->
          List.concat_map
            (fun clq_entries ->
              List.concat_map
                (fun color_bits ->
                  List.concat_map
                    (fun sensors ->
                      List.map
                        (fun rung ->
                          { core; sb_entries; clq_entries; color_bits; sensors; rung })
                        spec.rungs)
                    spec.sensors)
                spec.color_bits)
            spec.clq_entries)
        spec.sb_entries)
    spec.cores

let columns point =
  Report.
    [
      str "core" 0 (fun r -> core_name (point r).core);
      int "sb" 0 (fun r -> (point r).sb_entries);
      int "clq" 0 (fun r -> (point r).clq_entries);
      int "color_bits" 0 (fun r -> (point r).color_bits);
      int "sensors" 0 (fun r -> (point r).sensors);
      int "wcdl" 0 (fun r -> wcdl (point r));
      str "rung" 0 (fun r -> (point r).rung.Scheme.name);
    ]
