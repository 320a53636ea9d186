(* Domain example: a flight-controller-style control loop on a
   radiation-exposed in-order core — the embedded, battery-powered setting
   the paper motivates (drones, wearables, automotive ECUs) where DMR/TMR
   is too heavy and soft errors must still never corrupt actuator output.

   The kernel reads a sensor ring buffer, runs a PI-style control update
   and writes actuator commands. We (1) measure Turnpike's run-time cost
   on this loop, and (2) bombard it with single-bit register faults and
   verify the actuator trace is bit-identical to the fault-free run —
   SDC-freedom, the property acoustic-sensor verification exists to
   provide.

   Run with:  dune exec examples/drone_controller.exe *)

open Turnpike_ir
module Recovery = Turnpike_resilience.Recovery
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier

let build_controller ~steps =
  let b = Builder.create "flight_controller" in
  Builder.label b "entry";
  (* Sensor readings (altitude error samples) and actuator output. *)
  let sensors =
    Builder.alloc_array b ~len:(steps + 1) ~init:(fun k ->
        Turnpike_workloads.Data_gen.int ~seed:99 ~index:k ~bound:200 - 100)
  in
  let actuators = Builder.alloc_array b ~len:(steps + 1) ~init:(fun _ -> 0) in
  let sb = Builder.fresh_reg b and ab = Builder.fresh_reg b in
  Builder.mov b ~dst:sb (Imm sensors);
  Builder.mov b ~dst:ab (Imm actuators);
  let integ = Builder.fresh_reg b and i = Builder.fresh_reg b in
  Builder.mov b ~dst:integ (Imm 0);
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "tick";
  Builder.label b "tick";
  (* err = sensors[i] *)
  let off = Builder.fresh_reg b and addr = Builder.fresh_reg b in
  Builder.binop b Instr.Shl ~dst:off ~a:i (Imm 3);
  Builder.add b ~dst:addr ~a:off (Reg sb);
  let err = Builder.fresh_reg b in
  Builder.load b ~dst:err ~base:addr ();
  (* integ += err; cmd = 3*err + integ/4 (PI controller, integer gains) *)
  Builder.add b ~dst:integ ~a:integ (Reg err);
  let p = Builder.fresh_reg b and ii = Builder.fresh_reg b and cmd = Builder.fresh_reg b in
  Builder.mul b ~dst:p ~a:err (Imm 3);
  Builder.binop b Instr.Shr ~dst:ii ~a:integ (Imm 2);
  Builder.add b ~dst:cmd ~a:p (Reg ii);
  (* actuators[i] = cmd *)
  let waddr = Builder.fresh_reg b in
  Builder.add b ~dst:waddr ~a:off (Reg ab);
  Builder.store b ~src:cmd ~base:waddr ();
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm steps);
  Builder.branch b ~cond:c ~if_true:"tick" ~if_false:"land";
  Builder.label b "land";
  Builder.ret b;
  (Builder.finish b, actuators)

let () =
  let steps = 800 in
  let prog, actuators = build_controller ~steps in

  (* ---- Cost: what does guaranteed resilience cost this control loop? *)
  let overhead scheme wcdl =
    let opts = Turnpike.Scheme.compile_opts scheme ~sb_size:4 in
    let compiled = Turnpike_compiler.Pass_pipeline.compile ~opts prog in
    let trace, _ = Interp.trace_run compiled.Turnpike_compiler.Pass_pipeline.prog in
    let machine = Turnpike.Scheme.machine scheme ~wcdl ~sb_size:4 in
    (Turnpike_arch.Timing.simulate machine trace).Turnpike_arch.Sim_stats.cycles
  in
  let base = overhead Turnpike.Scheme.baseline 10 in
  Printf.printf "control loop: %d ticks, %d baseline cycles\n" steps base;
  List.iter
    (fun wcdl ->
      Printf.printf "  WCDL=%2d: turnstile %.3fx, turnpike %.3fx\n" wcdl
        (float_of_int (overhead Turnpike.Scheme.turnstile wcdl) /. float_of_int base)
        (float_of_int (overhead Turnpike.Scheme.turnpike wcdl) /. float_of_int base))
    [ 10; 30; 50 ];

  (* ---- Safety: bombard the controller with bit flips; actuator output
     must stay bit-identical to the fault-free flight. *)
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
  let compiled = Turnpike_compiler.Pass_pipeline.compile ~opts prog in
  let trace, golden = Interp.trace_run compiled.Turnpike_compiler.Pass_pipeline.prog in
  let faults = Injector.campaign ~seed:2024 ~count:60 trace in
  let report = (Verifier.run_campaign ~golden ~compiled faults).Verifier.report in
  Printf.printf
    "\nfault campaign: %d single-bit register strikes mid-flight\n"
    report.Verifier.total;
  Printf.printf "  recovered bit-exact: %d\n" report.Verifier.recovered;
  Printf.printf "  silent corruptions:  %d\n" report.Verifier.sdc;
  Printf.printf "  crashes:             %d\n" report.Verifier.crashed;
  Printf.printf "  detected by parity/AGU: %d, by acoustic sensors: %d\n"
    report.Verifier.parity_detections report.Verifier.sensor_detections;

  (* Show one recovery in action. *)
  let fault = Turnpike_resilience.Fault.single_bit ~at_step:4321 ~reg:3 ~bit:17 in
  let out = Recovery.run ~faults:[ fault ] compiled in
  let sample k = Interp.get_mem out.Recovery.state (actuators + (k * Layout.word)) in
  let gsample k = Interp.get_mem golden (actuators + (k * Layout.word)) in
  Printf.printf
    "\nsingle strike at step %d (bit %d of r%d): %d region restart(s); actuator[300] = %d (golden %d)\n"
    fault.Turnpike_resilience.Fault.at_step 17 3 out.Recovery.recoveries (sample 300) (gsample 300);
  if report.Verifier.sdc = 0 && report.Verifier.crashed = 0 then
    print_endline "\nSDC-free: every fault was contained and recovered."
  else print_endline "\nWARNING: resilience property violated!"
