(* Machine configurations. The defaults model the paper's gem5 setup
   (§6.1): a 2-issue in-order core in the style of the ARM Cortex-A53 with
   a 4-entry store buffer, 2-entry compact CLQ and 10-cycle default WCDL. *)

type t = {
  name : string;
  issue_width : int;
  sb_size : int;
  rbb_size : int;
  wcdl : int;
  verification : bool;
  clq : Clq.design option;
  coloring : bool;
  colors : int;
  branch_penalty : int;
  baseline_drain : int;
  nregs : int;
  mem : Mem_hierarchy.config;
  strict_partitioning : bool;
}

let base =
  {
    name = "baseline";
    issue_width = 2;
    sb_size = 4;
    rbb_size = 8;
    wcdl = 10;
    verification = false;
    clq = None;
    coloring = false;
    colors = Turnpike_ir.Layout.colors;
    branch_penalty = 2;
    baseline_drain = 2;
    nregs = 32;
    mem = Mem_hierarchy.default_config;
    strict_partitioning = false;
  }

let baseline = base

let turnstile ?(wcdl = 10) ?(sb_size = 4) () =
  {
    base with
    name = Printf.sprintf "turnstile-dl%d-sb%d" wcdl sb_size;
    wcdl;
    sb_size;
    verification = true;
  }

let turnpike ?(wcdl = 10) ?(sb_size = 4) ?(clq = Clq.Compact 2) ?(coloring = true) () =
  {
    base with
    name = Printf.sprintf "turnpike-dl%d-sb%d" wcdl sb_size;
    wcdl;
    sb_size;
    verification = true;
    clq = Some clq;
    coloring;
  }

let with_color_bits t bits =
  if bits < 0 then invalid_arg "Machine.with_color_bits: bits must be >= 0";
  if bits = 0 then { t with coloring = false }
  else { t with coloring = true; colors = 1 lsl bits }
