open Turnpike_ir

type claims = {
  bypass_stores : (string * int) list;
  direct_ckpts : (string * int) list;
}

let no_claims = { bypass_stores = []; direct_ckpts = [] }

type iv_merge = {
  victim : Reg.t;
  anchor : Reg.t;
  ratio : int;
  iv_base : [ `Const of int | `Reg of Reg.t ];
  header : string;
}

type cache = {
  mutable cfg : Cfg.t option;
  mutable liveness : Liveness.t option;
  mutable dominance : Dominance.t option;
  mutable regions : Regions_view.t option;
  mutable coverage : Coverage.t option;
}

type t = {
  func : Func.t;
  entry_defined : Reg.Set.t;
  nregs : int;
  allow_virtual : bool;
  resilient : bool;
  sb_size : int;
  colors : int;
  rbb_size : int option;
  clq_entries : int option;
  wcdl : int option;
  recovery_exprs : (Reg.t * Recovery_expr.t) list;
  claims : claims option;
  iv_merges : iv_merge list;
  pass : string option;
  cache : cache;
}

let fresh_cache () =
  { cfg = None; liveness = None; dominance = None; regions = None; coverage = None }

let make ?(entry_defined = Reg.Set.empty) ?(nregs = 32) ?(allow_virtual = false)
    ?(resilient = false) ?(sb_size = 0) ?(colors = Layout.colors) ?rbb_size
    ?clq_entries ?wcdl ?(recovery_exprs = []) ?claims ?(iv_merges = []) ?pass
    func =
  {
    func;
    entry_defined;
    nregs;
    allow_virtual;
    resilient;
    sb_size;
    colors;
    rbb_size;
    clq_entries;
    wcdl;
    recovery_exprs;
    claims;
    iv_merges;
    pass;
    cache = fresh_cache ();
  }

(* Which derived analyses a dirty-facet set staleness-kills. Liveness also
   depends on the block bodies, so it dies with [Instrs] (a dependence-
   preserving reorder keeps its block summaries); coverage's
   last-event-wins summaries also depend on instruction order, so it dies
   with [Instr_order] too; the region table only reads boundary markers
   and block labels, so plain instruction edits leave it valid. *)
let advance ~dirty ?entry_defined ?allow_virtual ?recovery_exprs ?claims
    ?iv_merges ?pass t func =
  let dirty = if func != t.func then Facet.all else dirty in
  let stale facets = not (Facet.Set.disjoint dirty (Facet.Set.of_list facets)) in
  let keep staleness v = if staleness then None else v in
  let cache =
    {
      cfg = keep (stale [ Facet.Cfg_shape ]) t.cache.cfg;
      dominance = keep (stale [ Facet.Cfg_shape ]) t.cache.dominance;
      liveness = keep (stale [ Facet.Cfg_shape; Facet.Instrs ]) t.cache.liveness;
      regions = keep (stale [ Facet.Cfg_shape; Facet.Boundaries ]) t.cache.regions;
      coverage =
        keep
          (stale [ Facet.Cfg_shape; Facet.Instrs; Facet.Instr_order ])
          t.cache.coverage;
    }
  in
  {
    t with
    func;
    entry_defined = Option.value entry_defined ~default:t.entry_defined;
    allow_virtual = Option.value allow_virtual ~default:t.allow_virtual;
    recovery_exprs = Option.value recovery_exprs ~default:t.recovery_exprs;
    claims = (match claims with Some _ -> claims | None -> t.claims);
    iv_merges = Option.value iv_merges ~default:t.iv_merges;
    pass;
    cache;
  }

let with_machine ?rbb_size ?clq_entries ?wcdl t =
  {
    t with
    rbb_size = (match rbb_size with Some _ -> rbb_size | None -> t.rbb_size);
    clq_entries = (match clq_entries with Some _ -> clq_entries | None -> t.clq_entries);
    wcdl = (match wcdl with Some _ -> wcdl | None -> t.wcdl);
  }

let cfg t =
  match t.cache.cfg with
  | Some c -> c
  | None ->
    let c = Cfg.build t.func in
    t.cache.cfg <- Some c;
    c

let liveness t =
  match t.cache.liveness with
  | Some l -> l
  | None ->
    let l = Liveness.compute (cfg t) in
    t.cache.liveness <- Some l;
    l

let dominance t =
  match t.cache.dominance with
  | Some d -> d
  | None ->
    let d = Dominance.compute (cfg t) in
    t.cache.dominance <- Some d;
    d

let regions t =
  match t.cache.regions with
  | Some r -> r
  | None ->
    let r = Regions_view.compute (cfg t) (fun () -> dominance t) t.func in
    t.cache.regions <- Some r;
    r

let coverage t =
  match t.cache.coverage with
  | Some c -> c
  | None ->
    let c = Coverage.compute (cfg t) in
    t.cache.coverage <- Some c;
    c
