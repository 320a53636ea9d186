(* Tests for the benchmark suite: every proxy builds, validates, runs to
   completion deterministically, and exhibits the behaviour class its
   template promises. *)

open Turnpike_ir
module Suite = Turnpike_workloads.Suite
module Templates = Turnpike_workloads.Templates
module Data_gen = Turnpike_workloads.Data_gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_suite_has_36_entries () =
  check_int "36 benchmarks" 36 (List.length (Suite.all ()));
  check_int "16 cpu2006" 16 (List.length (Suite.of_suite Suite.Cpu2006));
  check_int "13 cpu2017" 13 (List.length (Suite.of_suite Suite.Cpu2017));
  check_int "7 splash3" 7 (List.length (Suite.of_suite Suite.Splash3))

let test_qualified_names_unique () =
  let names = List.map Suite.qualified_name (Suite.all ()) in
  check_int "unique" (List.length names) (List.length (List.sort_uniq compare names))

let test_find_duplicated_names () =
  check_int "mcf in two suites" 2 (List.length (Suite.find_by_name "mcf"));
  check_int "bwaves in two suites" 2 (List.length (Suite.find_by_name "bwaves"));
  check "find by suite works" true
    (Suite.find ~suite:Suite.Cpu2017 ~name:"mcf" <> None);
  check "absent benchmark" true (Suite.find ~suite:Suite.Splash3 ~name:"mcf" = None)

let test_all_build_and_validate () =
  List.iter
    (fun b ->
      let prog = b.Suite.build ~scale:1 in
      Alcotest.(check (list string))
        (Suite.qualified_name b ^ " validates")
        [] (Prog.validate prog))
    (Suite.all ())

let test_all_run_to_completion () =
  List.iter
    (fun b ->
      let prog = b.Suite.build ~scale:1 in
      let st = Interp.run ~fuel:2_000_000 prog in
      check (Suite.qualified_name b ^ " halts") true st.Interp.halted)
    (Suite.all ())

let test_deterministic_builds () =
  List.iter
    (fun b ->
      let s1 = Interp.run ~fuel:2_000_000 (b.Suite.build ~scale:1) in
      let s2 = Interp.run ~fuel:2_000_000 (b.Suite.build ~scale:1) in
      check (Suite.qualified_name b ^ " deterministic") true (Mem.first_diff s1.Interp.mem s2.Interp.mem = None))
    (Suite.all ())

let test_scale_extends_work () =
  let b = List.hd (Suite.find_by_name "libquan") in
  let t1, _ = Interp.trace_run ~fuel:2_000_000 (b.Suite.build ~scale:1) in
  let t2, _ = Interp.trace_run ~fuel:2_000_000 (b.Suite.build ~scale:2) in
  check "scale 2 executes more" true (Trace.length t2 > Trace.length t1)

let test_template_characteristics () =
  let density p =
    let t, _ = Interp.trace_run ~fuel:2_000_000 p in
    let stores = Trace.count (function Trace.Store _ -> true | _ -> false) t in
    let loads = Trace.count (function Trace.Load _ -> true | _ -> false) t in
    (float_of_int stores /. float_of_int (Trace.num_instructions t),
     float_of_int loads /. float_of_int (Trace.num_instructions t))
  in
  let s_store, _ = density (Templates.stream_store ~iters:200 ~ways:3 ()) in
  let r_store, r_load = density (Templates.reduction ~iters:200 ~accs:6 ()) in
  check "stream is store-dense" true (s_store > 0.03);
  check "reduction is store-sparse" true (r_store < 0.02);
  check "reduction is load-heavy" true (r_load > 0.07)

let test_pointer_chase_misses () =
  (* The chase footprint exceeds L1: it must produce real misses. *)
  let prog = Templates.pointer_chase ~nodes:4096 ~iters:500 () in
  let trace, _ = Interp.trace_run ~fuel:2_000_000 prog in
  let machine = Turnpike_arch.Machine.baseline in
  let stats = Turnpike_arch.Timing.simulate machine trace in
  check "l1 hit rate below streaming" true (stats.Turnpike_arch.Sim_stats.l1_hit_rate < 0.99)

let test_histogram_war_dependences () =
  (* The histogram's load-increment-store sequence produces genuine WAR
     dependences: under Turnpike many stores must quarantine. *)
  let b = List.hd (Suite.find_by_name "radix") in
  let r =
    Turnpike.Run.run_with
      { Turnpike.Run.default_params with Turnpike.Run.scale = 1; wcdl = 10 }
      Turnpike.Scheme.turnpike b
  in
  check "some stores quarantined" true (r.Turnpike.Run.stats.Turnpike_arch.Sim_stats.quarantined > 0)

let test_stream_war_free () =
  let b = List.hd (Suite.find_by_name "libquan") in
  let r =
    Turnpike.Run.run_with
      { Turnpike.Run.default_params with Turnpike.Run.scale = 1; wcdl = 10 }
      Turnpike.Scheme.turnpike b
  in
  check "stream stores fast-release" true
    (r.Turnpike.Run.stats.Turnpike_arch.Sim_stats.war_free_released > 0)

(* ------------------------------------------------------------------ *)
(* Data generator *)

let test_data_gen_determinism () =
  check_int "mix deterministic" (Data_gen.mix 3 7) (Data_gen.mix 3 7);
  check "mix varies with seed" true (Data_gen.mix 3 7 <> Data_gen.mix 4 7);
  check "mix non-negative" true (Data_gen.mix 123 456 >= 0)

let test_data_gen_bounds () =
  for i = 0 to 100 do
    let v = Data_gen.int ~seed:5 ~index:i ~bound:10 in
    check "int in bounds" true (v >= 0 && v < 10);
    let s = Data_gen.small ~seed:5 ~index:i in
    check "small in [1,97]" true (s >= 1 && s <= 97)
  done

let test_data_gen_permutation () =
  let p = Data_gen.permutation ~seed:9 64 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check "is a permutation" true (sorted = Array.init 64 (fun i -> i))

let prop_permutation_valid =
  QCheck.Test.make ~name:"permutations are valid for any seed/size" ~count:50
    QCheck.(pair small_nat (int_range 1 200))
    (fun (seed, n) ->
      let p = Data_gen.permutation ~seed n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_data_int_bounds =
  QCheck.Test.make ~name:"Data_gen.int respects bounds" ~count:200
    QCheck.(triple small_nat small_nat (int_range 1 1000))
    (fun (seed, index, bound) ->
      let v = Data_gen.int ~seed ~index ~bound in
      v >= 0 && v < bound)

let qcheck =
  List.map QCheck_alcotest.to_alcotest [ prop_permutation_valid; prop_data_int_bounds ]

let tests =
  [
    ("suite has 36 entries", `Quick, test_suite_has_36_entries);
    ("qualified names unique", `Quick, test_qualified_names_unique);
    ("duplicated benchmark names", `Quick, test_find_duplicated_names);
    ("all build and validate", `Quick, test_all_build_and_validate);
    ("all run to completion", `Slow, test_all_run_to_completion);
    ("deterministic builds", `Slow, test_deterministic_builds);
    ("scale extends work", `Quick, test_scale_extends_work);
    ("template characteristics", `Quick, test_template_characteristics);
    ("pointer chase misses", `Quick, test_pointer_chase_misses);
    ("histogram WAR dependences", `Quick, test_histogram_war_dependences);
    ("stream stores WAR-free", `Quick, test_stream_war_free);
    ("data gen determinism", `Quick, test_data_gen_determinism);
    ("data gen bounds", `Quick, test_data_gen_bounds);
    ("data gen permutation", `Quick, test_data_gen_permutation);
  ]
  @ qcheck
