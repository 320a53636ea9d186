(* The full compile pipeline (paper Fig 7):

     [LIVM] -> register allocation [store-aware] ->
     SB-aware partitioning + eager checkpointing (iterated to respect the
     store budget) -> [checkpoint pruning] -> [LICM sinking] ->
     [checkpoint-aware scheduling] -> recovery metadata

   Bracketed phases are the Turnpike optimizations; disabling them all
   yields exactly Turnstile's code.

   The pass sequence is declared once, in [passes]: the public
   [pass_names], the telemetry span names and the per-pass check
   provenance all derive from that single list. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry
module Analysis = Turnpike_analysis

type opts = {
  nregs : int;
  sb_size : int; (* store-buffer size the partitioner targets *)
  resilient : bool; (* false = plain baseline code (no regions/ckpts) *)
  unroll : int; (* counted-loop unroll factor (1 = off); applied to every
                   scheme equally, like the -O3 unrolling it stands for *)
  store_aware_ra : bool;
  livm : bool;
  pruning : bool;
  licm : bool;
  sched : bool;
  sched_separation : int;
}

let baseline_opts =
  {
    nregs = 32;
    sb_size = 4;
    resilient = false;
    unroll = 1;
    store_aware_ra = false;
    livm = false;
    pruning = false;
    licm = false;
    sched = false;
    sched_separation = Scheduling.default_separation;
  }

let turnstile_opts = { baseline_opts with resilient = true }

let turnpike_opts =
  {
    turnstile_opts with
    store_aware_ra = true;
    livm = true;
    pruning = true;
    licm = true;
    sched = true;
  }

type check_level = Off | Final | PerPass | PerPassFull

type region_info = { id : int; head : string; live_in : Reg.t list }

type t = {
  prog : Prog.t;
  opts : opts;
  regions : region_info array;
  recovery_exprs : (Reg.t, Recovery_expr.t) Hashtbl.t;
  claims : Claims.t;
  diags : Analysis.Diag.t list;
  check_log : (string * string list) list;
  stats : Static_stats.t;
}

let count_code_size func =
  Func.fold_instrs
    (fun acc i -> if Instr.is_boundary i then acc else acc + 1)
    0 func

(* Partitioning and checkpoint insertion feed each other: checkpoints are
   stores, so they count against the region store budget, but they can only
   be placed once regions exist. Iterate until the worst region path fits
   the budget (or the budget bottoms out at 1). *)
let partition_and_checkpoint func ~sb_size ~entry_live stats =
  let target = max 1 (sb_size / 2) in
  (* Each round partitions with the previous round's checkpoints still in
     place (so they count against the store budget), then re-inserts
     checkpoints relative to the new boundaries. The budget tightens when
     re-partitioning alone stops making progress. A round builds each
     analysis once: boundary and checkpoint edits leave the CFG that
     partitioning built valid, so dominance, loops and checkpoint
     insertion share it, and the budget is measured on the region
     structure the checkpoints were placed against. *)
  let rec attempt budget iter =
    let cfg = Regions.partition ~budget func in
    ignore (Checkpoint.strip func);
    let structure, inserted = Checkpoint.insert ~entry_live ~cfg func in
    let worst = Regions.worst_region_path func structure in
    if worst <= target || iter >= 8 then begin
      stats.Static_stats.ckpts_inserted <- inserted;
      stats.Static_stats.regions <- Regions.num_regions structure;
      structure
    end
    else
      (* Re-partitioning with checkpoints visible usually fixes overfull
         regions by splitting them locally; only tighten the global budget
         once that has had a couple of chances. *)
      let budget = if iter >= 2 && budget > 1 then budget - 1 else budget in
      attempt budget (iter + 1)
  in
  attempt target 0

let live_in_table live regions =
  List.map
    (fun (r : Regions.region) ->
      {
        id = r.Regions.id;
        head = r.Regions.head;
        live_in =
          Reg.Set.elements
            (Reg.Set.filter
               (fun x -> not (Reg.is_zero x))
               (Liveness.live_in live r.Regions.head));
      })
    (Regions.regions regions)

(* Mutable pipeline state threaded through the declared pass list. *)
type env = {
  mutable prog : Prog.t;
  stats : Static_stats.t;
  mutable recovery_exprs : (Reg.t, Recovery_expr.t) Hashtbl.t;
  mutable regions : region_info array;
  mutable claims : Claims.t;
  mutable iv_merges : Livm.merge list;
  mutable regalloc_done : bool;
  e_opts : opts;
}

type pass = {
  pname : string;
  enabled : opts -> bool;
  enable_hint : string;
      (* what the options must provide for this pass to be available;
         quoted by the pipeline-spec validator's diagnostics *)
  dirties : Analysis.Facet.Set.t;
      (* facets the pass may touch — the incremental registry re-runs
         exactly the checks whose read sets intersect these. Declare
         conservatively: a spurious facet only costs a redundant
         re-check, a missing one would silently drop diagnostics
         (tools/check.sh pins incremental ≡ full re-check output). *)
  reads : Analysis.Facet.Set.t;
      (* facets the pass's own transformation depends on. User-composed
         pipelines are validated against these: for passes P, Q in
         canonical order, if P may dirty a facet Q reads, then no user
         pipeline may run Q before P. *)
  action : env -> bool;
      (* returns whether the pass changed anything. A pass that reports
         [false] charges no dirty facets at all — its round of checks is
         skipped entirely. The report must be honest in the same sense
         the facet declaration must: claiming no-change while mutating
         would drop diagnostics, and the incremental ≡ full-re-check diff
         would catch it. *)
}

let facets = Analysis.Facet.Set.of_list

(* THE declared pass list. [pass_names], the telemetry span names, the
   per-pass check provenance and the dirty-facet charging all come from
   here — never restate a pass name elsewhere. *)
let passes : pass list =
  [
    {
      pname = "unroll";
      enabled = (fun o -> o.unroll > 1);
      enable_hint = "an unroll factor > 1";
      (* replicates loop bodies in place; the block set and terminators
         are untouched *)
      dirties = facets [ Analysis.Facet.Instrs ];
      reads = facets [ Analysis.Facet.Cfg_shape; Analysis.Facet.Instrs ];
      action =
        (fun env ->
          let r = Unroll.run ~factor:env.e_opts.unroll env.prog.Prog.func in
          r.Unroll.unrolled > 0);
    };
    {
      pname = "livm";
      enabled = (fun o -> o.livm);
      enable_hint = "the LIVM optimization (on under the turnpike scheme)";
      dirties = facets [ Analysis.Facet.Instrs ];
      reads = facets [ Analysis.Facet.Cfg_shape; Analysis.Facet.Instrs ];
      action =
        (fun env ->
          let r = Livm.run env.prog.Prog.func in
          env.stats.Static_stats.livm_merged_ivs <- r.Livm.merged;
          env.iv_merges <- r.Livm.merges;
          r.Livm.merged > 0);
    };
    {
      pname = "regalloc";
      enabled = (fun _ -> true);
      enable_hint = "(always available)";
      dirties = facets [ Analysis.Facet.Instrs; Analysis.Facet.Reg_classes ];
      reads = facets [ Analysis.Facet.Cfg_shape; Analysis.Facet.Instrs ];
      action =
        (fun env ->
          let ra_config =
            {
              Regalloc.default_config with
              nregs = env.e_opts.nregs;
              store_aware = env.e_opts.store_aware_ra;
            }
          in
          let func = env.prog.Prog.func in
          let ra = Regalloc.run ~config:ra_config func in
          env.stats.Static_stats.spill_stores <- ra.Regalloc.spill_stores;
          env.stats.Static_stats.spill_loads <- ra.Regalloc.spill_loads;
          env.stats.Static_stats.spilled_vregs <- ra.Regalloc.spilled_vregs;
          let reg_init, extra_mem = Regalloc.remap_inputs ra env.prog.Prog.reg_init in
          env.prog <-
            {
              env.prog with
              Prog.reg_init;
              mem_init = env.prog.Prog.mem_init @ extra_mem;
            };
          env.stats.Static_stats.base_code_size <- count_code_size func;
          env.regalloc_done <- true;
          true);
    };
    {
      pname = "partition_and_checkpoint";
      enabled = (fun o -> o.resilient);
      enable_hint = "a resilient scheme (turnstile or turnpike)";
      dirties =
        facets
          [
            Analysis.Facet.Cfg_shape;
            Analysis.Facet.Instrs;
            Analysis.Facet.Boundaries;
          ];
      reads =
        facets
          [
            Analysis.Facet.Cfg_shape;
            Analysis.Facet.Instrs;
            Analysis.Facet.Reg_classes;
          ];
      action =
        (fun env ->
          let entry_live = List.map fst env.prog.Prog.reg_init in
          ignore
            (partition_and_checkpoint env.prog.Prog.func
               ~sb_size:env.e_opts.sb_size ~entry_live env.stats);
          true);
    };
    {
      pname = "pruning";
      enabled = (fun o -> o.resilient && o.pruning);
      enable_hint = "a resilient scheme with pruning on (turnpike)";
      dirties =
        facets [ Analysis.Facet.Instrs; Analysis.Facet.Recovery_exprs ];
      reads =
        facets
          [
            Analysis.Facet.Instrs;
            Analysis.Facet.Boundaries;
            Analysis.Facet.Reg_classes;
          ];
      action =
        (fun env ->
          let r = Pruning.run env.prog.Prog.func in
          env.stats.Static_stats.ckpts_pruned <- r.Pruning.pruned;
          env.recovery_exprs <- r.Pruning.exprs;
          r.Pruning.pruned > 0 || Hashtbl.length r.Pruning.exprs > 0);
    };
    {
      pname = "licm_sink";
      enabled = (fun o -> o.resilient && o.licm);
      enable_hint = "a resilient scheme with LICM sinking on (turnpike)";
      dirties = facets [ Analysis.Facet.Instrs ];
      reads =
        facets
          [
            Analysis.Facet.Cfg_shape;
            Analysis.Facet.Instrs;
            Analysis.Facet.Boundaries;
            Analysis.Facet.Reg_classes;
          ];
      action =
        (fun env ->
          let r = Licm_sink.run env.prog.Prog.func in
          env.stats.Static_stats.ckpts_licm_moved <- r.Licm_sink.moved;
          env.stats.Static_stats.ckpts_licm_eliminated <- r.Licm_sink.eliminated;
          r.Licm_sink.moved > 0 || r.Licm_sink.eliminated > 0);
    };
    {
      pname = "scheduling";
      enabled = (fun o -> o.resilient && o.sched);
      enable_hint = "a resilient scheme with scheduling on (turnpike)";
      (* the scheduler only permutes within blocks, preserving every
         dependence (sched-deps audits this), so block-level dataflow —
         the liveness cache in particular — survives the pass *)
      dirties = facets [ Analysis.Facet.Instr_order ];
      reads =
        facets
          [
            Analysis.Facet.Instrs;
            Analysis.Facet.Boundaries;
            Analysis.Facet.Reg_classes;
          ];
      action =
        (fun env ->
          let r =
            Scheduling.run ~separation:env.e_opts.sched_separation
              env.prog.Prog.func
          in
          env.stats.Static_stats.sched_moved <- r.Scheduling.moved;
          r.Scheduling.moved > 0);
    };
    {
      pname = "region_metadata";
      enabled = (fun o -> o.resilient);
      enable_hint = "a resilient scheme (turnstile or turnpike)";
      dirties = facets [ Analysis.Facet.Claims ];
      reads =
        facets
          [
            Analysis.Facet.Cfg_shape;
            Analysis.Facet.Instrs;
            Analysis.Facet.Instr_order;
            Analysis.Facet.Boundaries;
            Analysis.Facet.Recovery_exprs;
            Analysis.Facet.Reg_classes;
          ];
      action =
        (fun env ->
          let func = env.prog.Prog.func in
          env.stats.Static_stats.code_size <- count_code_size func;
          (* one CFG and one liveness for the live-in table and the claims *)
          let cfg = Cfg.build func in
          let live = Liveness.compute cfg in
          let regions = Array.of_list (live_in_table live (Regions.of_cfg cfg func)) in
          Array.sort (fun a b -> compare a.id b.id) regions;
          env.regions <- regions;
          env.claims <- Claims.compute cfg live func;
          true);
    };
  ]

let pass_names (opts : opts) =
  List.filter_map
    (fun p -> if p.enabled opts then Some p.pname else None)
    passes

(* --- user-composable pipelines ------------------------------------ *)

let all_pass_names = List.map (fun p -> p.pname) passes

let find_pass name = List.find_opt (fun p -> String.equal p.pname name) passes

let canonical_index name =
  let rec go i = function
    | [] -> -1
    | p :: rest -> if String.equal p.pname name then i else go (i + 1) rest
  in
  go 0 passes

(* Passes the rest of the system cannot do without: the interpreter
   needs physical registers, and every resilient consumer (regions
   array, claims, recovery metadata) needs partitioning + metadata. *)
let mandatory (opts : opts) =
  "regalloc"
  :: (if opts.resilient then [ "partition_and_checkpoint"; "region_metadata" ]
      else [])

(* Check an ordered pass-name list against the options and the
   dirties/reads contracts. Soundness rule: for passes P, Q where P
   precedes Q canonically and P may dirty a facet Q reads, every user
   pipeline containing both must also run P before Q. *)
let validate_pipeline ~(opts : opts) names =
  let rec first_error = function
    | [] -> None
    | x :: _ when find_pass x = None ->
      Some
        (Printf.sprintf "unknown pass `%s' (passes: %s)" x
           (String.concat ", " all_pass_names))
    | x :: rest when List.exists (String.equal x) rest ->
      Some (Printf.sprintf "pass `%s' listed twice" x)
    | x :: rest -> (
      match find_pass x with
      | Some p when not (p.enabled opts) ->
        Some
          (Printf.sprintf
             "pass `%s' is disabled by the current options (it requires %s)" x
             p.enable_hint)
      | _ -> first_error rest)
  in
  match first_error names with
  | Some msg -> Error msg
  | None -> (
    match
      List.find_opt (fun m -> not (List.exists (String.equal m) names)) (mandatory opts)
    with
    | Some m ->
      Error
        (Printf.sprintf
           "pass `%s' is mandatory under the current options and cannot be dropped"
           m)
    | None ->
      (* ordering: look for a canonically-later pass placed before a
         canonically-earlier one it depends on *)
      let rec check_order = function
        | [] -> Ok names
        | q :: rest -> (
          let qi = canonical_index q in
          let violation =
            List.find_opt
              (fun p ->
                canonical_index p < qi
                &&
                let pp = Option.get (find_pass p) in
                let qq = Option.get (find_pass q) in
                not
                  (Analysis.Facet.Set.is_empty
                     (Analysis.Facet.Set.inter pp.dirties qq.reads)))
              rest
          in
          match violation with
          | Some p ->
            let pp = Option.get (find_pass p) in
            let qq = Option.get (find_pass q) in
            Error
              (Printf.sprintf
                 "pass `%s' must run before `%s': `%s' may dirty %s, which \
                  `%s' reads"
                 p q p
                 (Analysis.Facet.set_to_string
                    (Analysis.Facet.Set.inter pp.dirties qq.reads))
                 q)
          | None -> check_order rest)
      in
      check_order names)

let resolve_pipeline ~(opts : opts) spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match items with
  | [] ->
    Error
      "empty --pipeline spec; use \"default\", \"-pass,...\" removals, or an \
       explicit comma-separated pass list"
  | [ "default" ] -> Ok (pass_names opts)
  | _ ->
    let removals, keeps =
      List.partition (fun s -> String.length s > 0 && s.[0] = '-') items
    in
    if removals <> [] && keeps <> [] then
      Error
        "cannot mix `-pass' removals with an explicit pass list; use one \
         form or the other"
    else if List.exists (String.equal "default") keeps then
      Error "`default' cannot be combined with other passes"
    else
      let names =
        if removals <> [] then begin
          let removed =
            List.map (fun s -> String.sub s 1 (String.length s - 1)) removals
          in
          match List.find_opt (fun r -> find_pass r = None) removed with
          | Some r ->
            Error
              (Printf.sprintf "unknown pass `-%s' (passes: %s)" r
                 (String.concat ", " all_pass_names))
          | None ->
            Ok
              (List.filter
                 (fun n -> not (List.exists (String.equal n) removed))
                 (pass_names opts))
        end
        else Ok keeps
      in
      Result.bind names (validate_pipeline ~opts)

(* Run one pass under a wall-clock profiling span whose args carry the
   [Static_stats] delta the pass contributed (category ["compiler"]). With
   a disabled sink this is just [f ()]: no snapshot, no clock reads. *)
let run_pass tel stats name f =
  if not (Telemetry.enabled tel) then f ()
  else begin
    let before = Static_stats.copy stats in
    let start = Telemetry.span_start tel in
    let v = f () in
    let args =
      List.map
        (fun (k, d) -> (k, Telemetry.Int d))
        (Static_stats.diff ~before ~after:stats)
    in
    Telemetry.span_finish tel ~start ~cat:"compiler" ~args name;
    v
  end

let sorted_exprs recovery_exprs =
  Hashtbl.fold (fun r e acc -> (r, e) :: acc) recovery_exprs []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)

let conv_claims claims =
  Option.map
    (fun (c : Claims.t) ->
      {
        Analysis.Context.bypass_stores = c.Claims.bypass_stores;
        direct_ckpts = c.Claims.direct_ckpts;
      })
    claims

let conv_merges merges =
  List.map
    (fun (m : Livm.merge) ->
      {
        Analysis.Context.victim = m.Livm.victim;
        anchor = m.Livm.anchor;
        ratio = m.Livm.ratio;
        iv_base = m.Livm.m_base;
        header = m.Livm.header;
      })
    merges

let context_of ?pass ?(iv_merges = []) ~prog ~(opts : opts) ~recovery_exprs
    ~claims ~regalloc_done () =
  Analysis.Context.make
    ~entry_defined:(Reg.Set.of_list (List.map fst prog.Prog.reg_init))
    ~nregs:opts.nregs
    ~allow_virtual:(not regalloc_done)
    ~resilient:opts.resilient ~sb_size:opts.sb_size
    ~recovery_exprs:(sorted_exprs recovery_exprs)
    ?claims:(conv_claims claims) ~iv_merges:(conv_merges iv_merges) ?pass
    prog.Prog.func

let analysis_context ?pass (t : t) =
  context_of ?pass ~prog:t.prog ~opts:t.opts ~recovery_exprs:t.recovery_exprs
    ~claims:(Some t.claims) ~regalloc_done:true ()

let compile ?(opts = turnstile_opts) ?(tel = Telemetry.null) ?(check = Off)
    ?pipeline (prog : Prog.t) =
  let pass_seq =
    match pipeline with
    | None -> List.filter (fun p -> p.enabled opts) passes
    | Some names -> (
      match validate_pipeline ~opts names with
      | Ok names ->
        List.map (fun n -> Option.get (find_pass n)) names
      | Error msg -> invalid_arg ("Pass_pipeline.compile: " ^ msg))
  in
  let stats = Static_stats.create () in
  let prog = Prog.with_func prog (Func.copy prog.Prog.func) in
  let env =
    {
      prog;
      stats;
      recovery_exprs = Hashtbl.create 0;
      regions = [||];
      claims = Claims.empty;
      iv_merges = [];
      regalloc_done = false;
      e_opts = opts;
    }
  in
  let diags = ref [] in
  let check_log = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let claims_of env =
    (* Claims only exist once region_metadata has computed them; before
       that the checker has nothing to audit. *)
    if env.claims == Claims.empty then None else Some env.claims
  in
  let env_context ?pass env =
    context_of ?pass ~iv_merges:env.iv_merges ~prog:env.prog ~opts:env.e_opts
      ~recovery_exprs:env.recovery_exprs ~claims:(claims_of env)
      ~regalloc_done:env.regalloc_done ()
  in
  let per_pass = check = PerPass || check = PerPassFull in
  let whole_names =
    List.map (fun (c : Analysis.Registry.whole) -> c.Analysis.Registry.name)
      Analysis.Registry.whole_checks
  in
  (* Incremental state ([PerPass] only): the context is stepped across
     each pass with [Context.advance], carrying forward every derived
     analysis the pass's dirty facets leave valid, and the registry
     re-runs only the checks whose read sets those facets intersect. *)
  let inc = Analysis.Registry.inc_create () in
  let ictx : Analysis.Context.t option ref = ref None in
  let step_context ?pass ~dirty env =
    let ctx =
      match (check, !ictx) with
      | PerPass, Some prev ->
        Analysis.Context.advance ~dirty
          ~entry_defined:(Reg.Set.of_list (List.map fst env.prog.Prog.reg_init))
          ~allow_virtual:(not env.regalloc_done)
          ~recovery_exprs:(sorted_exprs env.recovery_exprs)
          ?claims:(conv_claims (claims_of env))
          ~iv_merges:(conv_merges env.iv_merges) ?pass prev env.prog.Prog.func
      | _ -> env_context ?pass env
    in
    if check = PerPass then ictx := Some ctx;
    ctx
  in
  let run_whole_on ~dirty ctx =
    match check with
    | PerPass ->
      let ds, ran = Analysis.Registry.run_whole_inc inc ~dirty ctx in
      diags := !diags @ Analysis.Registry.fresh ~seen ds;
      ran
    | _ ->
      let ds = Analysis.Registry.run_whole ctx in
      diags := !diags @ Analysis.Registry.fresh ~seen ds;
      whole_names
  in
  (* One registry round: its check_log entry and, on an enabled sink, a
     wall-clock span (category ["analysis"]) of the same name whose args
     list the checks that ran. A disabled sink costs no clock read. *)
  let round name f =
    let ran =
      if not (Telemetry.enabled tel) then f ()
      else begin
        let start = Telemetry.span_start tel in
        let ran = f () in
        Telemetry.span_finish tel ~start ~cat:"analysis"
          ~args:[ ("checks", Telemetry.Str (String.concat "," ran)) ]
          name;
        ran
      end
    in
    check_log := (name, ran) :: !check_log
  in
  (* In per-pass mode, violations already present in the input carry no
     pass provenance; anything that appears later is attributed to the
     first pass after which the registry reports it. *)
  if per_pass then
    round "<input>" (fun () ->
        let dirty = Analysis.Facet.all in
        run_whole_on ~dirty (step_context ~dirty env));
  List.iter
    (fun p ->
      let snapshot =
        if per_pass && List.mem p.pname Analysis.Registry.pair_passes then
          Some (Func.copy env.prog.Prog.func)
        else None
      in
      let changed = run_pass tel stats p.pname (fun () -> p.action env) in
      if per_pass then begin
        (* A pass that reports no change charges nothing: its checks
           (pair and whole alike) would see the exact state the previous
           round already checked. The [PerPassFull] oracle still re-runs
           every whole check, so tools/check.sh's byte-diff verifies the
           skip is output-preserving. *)
        let dirty =
          if changed then p.dirties else Analysis.Facet.Set.empty
        in
        round p.pname (fun () ->
            let ctx = step_context ~pass:p.pname ~dirty env in
            let pair_ran =
              match snapshot with
              | Some before when changed ->
                let ds = Analysis.Registry.run_pair ~pass:p.pname ~before ctx in
                diags := !diags @ Analysis.Registry.fresh ~seen ds;
                Analysis.Registry.pair_names_for p.pname
              | Some _ | None -> []
            in
            pair_ran @ run_whole_on ~dirty ctx)
      end)
    pass_seq;
  if check = Final then
    round "<final>" (fun () -> run_whole_on ~dirty:Analysis.Facet.all (env_context env));
  if not opts.resilient then
    stats.Static_stats.code_size <- stats.Static_stats.base_code_size;
  {
    prog = env.prog;
    opts;
    regions = env.regions;
    recovery_exprs = env.recovery_exprs;
    claims = env.claims;
    diags = Analysis.Diag.sort !diags;
    check_log = List.rev !check_log;
    stats;
  }

let region_info (t : t) id =
  if id < 0 || id >= Array.length t.regions then None
  else
    (* Region infos are sorted by id and ids are dense. *)
    let r = t.regions.(id) in
    if r.id = id then Some r
    else Array.find_opt (fun r -> r.id = id) t.regions
