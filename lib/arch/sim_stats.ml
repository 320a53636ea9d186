type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int; (* regular stores (app + spill) *)
  mutable ckpts : int;
  mutable boundaries : int;
  mutable war_free_released : int;
  mutable colored_released : int;
  mutable quarantined : int;
  mutable ckpt_quarantined : int;
  mutable sb_full_stall_cycles : int;
  mutable data_stall_cycles : int;
  mutable rbb_stall_cycles : int;
  mutable partition_violations : int;
  mutable clq_overflows : int;
  mutable clq_mean_populated : float;
  mutable clq_max_populated : int;
  mutable coloring_fallbacks : int;
  mutable sb_mean_occupancy : float;
  mutable l1_hit_rate : float;
  mutable sb_forwards : int;
  mutable branch_mispredicts : int;
  mutable complete : bool;
}

let create () =
  {
    cycles = 0;
    instructions = 0;
    loads = 0;
    stores = 0;
    ckpts = 0;
    boundaries = 0;
    war_free_released = 0;
    colored_released = 0;
    quarantined = 0;
    ckpt_quarantined = 0;
    sb_full_stall_cycles = 0;
    data_stall_cycles = 0;
    rbb_stall_cycles = 0;
    partition_violations = 0;
    clq_overflows = 0;
    clq_mean_populated = 0.0;
    clq_max_populated = 0;
    coloring_fallbacks = 0;
    sb_mean_occupancy = 0.0;
    l1_hit_rate = 1.0;
    sb_forwards = 0;
    branch_mispredicts = 0;
    complete = true;
  }

let ipc t =
  if t.cycles = 0 then 0.0 else float_of_int t.instructions /. float_of_int t.cycles

let sb_writes t = t.stores + t.ckpts

let fast_released t = t.war_free_released + t.colored_released

let war_free_ratio t =
  let sw = sb_writes t in
  if sw = 0 then 0.0 else float_of_int t.war_free_released /. float_of_int sw

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cycles=%d instrs=%d ipc=%.3f@,\
     loads=%d stores=%d ckpts=%d regions=%d@,\
     fast: war-free=%d colored=%d; quarantined=%d (ckpt %d)@,\
     stalls: sb=%d data=%d rbb=%d; clq ovf=%d mean=%.2f max=%d@,\
     l1 hit=%.3f sb occ=%.2f violations=%d@]"
    t.cycles t.instructions (ipc t) t.loads t.stores t.ckpts t.boundaries
    t.war_free_released t.colored_released t.quarantined t.ckpt_quarantined
    t.sb_full_stall_cycles t.data_stall_cycles t.rbb_stall_cycles t.clq_overflows
    t.clq_mean_populated t.clq_max_populated t.l1_hit_rate t.sb_mean_occupancy
    t.partition_violations

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let b = Buffer.create 512 in
  let field name v = Buffer.add_string b (Printf.sprintf "\"%s\":%s," name v) in
  Buffer.add_char b '{';
  field "cycles" (string_of_int t.cycles);
  field "instructions" (string_of_int t.instructions);
  field "ipc" (Printf.sprintf "%.4f" (ipc t));
  field "loads" (string_of_int t.loads);
  field "stores" (string_of_int t.stores);
  field "ckpts" (string_of_int t.ckpts);
  field "regions" (string_of_int t.boundaries);
  field "war_free_released" (string_of_int t.war_free_released);
  field "colored_released" (string_of_int t.colored_released);
  field "quarantined" (string_of_int t.quarantined);
  field "ckpt_quarantined" (string_of_int t.ckpt_quarantined);
  field "sb_full_stall_cycles" (string_of_int t.sb_full_stall_cycles);
  field "data_stall_cycles" (string_of_int t.data_stall_cycles);
  field "rbb_stall_cycles" (string_of_int t.rbb_stall_cycles);
  field "partition_violations" (string_of_int t.partition_violations);
  field "clq_overflows" (string_of_int t.clq_overflows);
  field "clq_mean_populated" (Printf.sprintf "%.4f" t.clq_mean_populated);
  field "clq_max_populated" (string_of_int t.clq_max_populated);
  field "coloring_fallbacks" (string_of_int t.coloring_fallbacks);
  field "sb_mean_occupancy" (Printf.sprintf "%.4f" t.sb_mean_occupancy);
  field "l1_hit_rate" (Printf.sprintf "%.4f" t.l1_hit_rate);
  field "sb_forwards" (string_of_int t.sb_forwards);
  field "branch_mispredicts" (string_of_int t.branch_mispredicts);
  Buffer.add_string b (Printf.sprintf "\"complete\":%b}" t.complete);
  Buffer.contents b
