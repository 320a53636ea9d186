(* Static ACE/AVF estimate. See the .mli for the model; the shape of the
   output deliberately mirrors [Forensics]' dynamic tables so the two
   rankings are comparable key-for-key:

     by_site     "block:index"     <-> strike pc of each injected fault
     by_register "rN"              <-> struck register
     by_region   "id"              <-> region open at the strike

   Everything is derived from the context's memoized analyses plus one
   private loop-nesting pass, so a [compute] costs roughly one liveness
   fixpoint — cheap enough for [lint --vuln] to tabulate every benchmark
   and scheme without simulating. *)

open Turnpike_ir

let name = "vuln"

(* Assumed iterations per loop-nesting level: the static stand-in for
   trip counts. *)
let loop_weight = 8.0

(* A fault escapes detection when it propagates out of its region before
   the detector fires; longer regions give the (WCDL-delayed) detector
   more slack, so escape falls as mass/WCDL grows (paper Fig. 4). *)
let base_escape = 0.01

(* Weighted mass feeding a claimed verification-bypassable store is a
   direct SDC path when the claim is wrong; keep the charge small but
   visible so bogus claims move their sites up the ranking. *)
let bypass_factor = 0.05

(* An uncovered region live-in makes every rollback of that region
   restore a stale value: charge the full region mass once per gap. *)
let gap_factor = 1.0

type row = { key : string; exposure : float; score : float }
type table = row list

type window = {
  w_block : string;
  w_index : int;
  w_reg : Reg.t;
  w_region : int;
  w_length : float;
  w_bypass : float;
}

type t = {
  windows : window list;
  by_site : table;
  by_register : table;
  by_region : table;
  gaps : (int * string * Reg.t) list;
  total_mass : float;
  predicted_avf : float;
  wcdl : int;
}

let empty =
  {
    windows = [];
    by_site = [];
    by_register = [];
    by_region = [];
    gaps = [];
    total_mass = 0.0;
    predicted_avf = 0.0;
    wcdl = 0;
  }

let rank rows =
  List.sort
    (fun a b ->
      let c = compare b.score a.score in
      if c <> 0 then c
      else
        let c = compare b.exposure a.exposure in
        if c <> 0 then c else Rank.key_compare a.key b.key)
    rows

(* A window walk's running sums: an all-float record is stored flat, so
   adding to it allocates nothing. *)
type sums = { mutable mass : float; mutable bypassed : float }

(* The tables are built on the CFG's dense view: per-block arrays indexed
   by RPO number, a live count per slot instead of a live set, a bypass
   bitmap per block instead of a [(label, index)] table, and a stamped
   visited array shared by the window walks. Every float is summed in
   the order the label-keyed version summed it (blocks in reverse
   postorder, slots in body order, window positions in walk order), so
   the results are bit-identical. *)
let compute (ctx : Context.t) =
  let rv = Context.regions ctx in
  if not rv.Regions_view.has_regions then empty
  else begin
    let cfg = Context.cfg ctx in
    let live = Context.liveness ctx in
    let loops = Loop_info.compute cfg (Context.dominance ctx) in
    let wcdl = max 1 (Option.value ctx.Context.wcdl ~default:10) in
    let nregs = float_of_int (max 1 ctx.Context.nregs) in
    let n = Cfg.num_reachable cfg in
    let block k = Cfg.rpo_block cfg k in
    let regions = rv.Regions_view.regions and region_of = rv.Regions_view.region_of in
    let weight =
      Array.init n (fun k ->
          loop_weight ** float_of_int (Loop_info.depth loops (Cfg.rpo_label cfg k)))
    in
    (* region masses and the function total *)
    let region_mass = Array.make (Array.length regions) 0.0 in
    let total_mass = ref 0.0 in
    for k = 0 to n - 1 do
      let m = weight.(k) *. float_of_int (Block.num_instrs (block k) + 1) in
      total_mass := !total_mass +. m;
      let q = region_of.(k) in
      if q >= 0 then region_mass.(q) <- m +. region_mass.(q)
    done;
    (* coverage gaps: each one leaves its region's rollback unsound *)
    let gaps = Recoverability.uncovered_live_ins ctx in
    let region_multiplier =
      Array.mapi
        (fun q { Regions_view.id; _ } ->
          let escape =
            base_escape *. float_of_int wcdl /. (float_of_int wcdl +. region_mass.(q))
          in
          let gap_count =
            List.fold_left (fun acc (rid, _, _) -> if rid = id then acc + 1 else acc) 0 gaps
          in
          escape +. (gap_factor *. float_of_int gap_count))
        regions
    in
    (* outside every region: no rollback at all *)
    let multiplier k =
      let q = region_of.(k) in
      if q < 0 then base_escape else region_multiplier.(q)
    in
    (* Registers are small ints: the largest the reachable code names
       sizes the per-register arrays. *)
    let max_reg = ref 0 in
    let bump r = if r > !max_reg then max_reg := r in
    for k = 0 to n - 1 do
      let b = block k in
      Array.iter
        (fun i ->
          Instr.iter_defs bump i;
          Instr.iter_uses bump i)
        b.Block.body;
      List.iter bump (Block.term_uses b)
    done;
    let max_reg = !max_reg in
    (* ---- per-site table: weighted ACE fraction at each position ---- *)
    (* live registers (the zero register aside) before each slot,
       counted backward from a block's exit: [mark.(r) = k] while [r] is
       live in block [k] *)
    let mark = Array.make (max_reg + 1) (-1) in
    let at = ref 0 and c = ref 0 in
    let add r =
      if (not (Reg.is_zero r)) && mark.(r) <> !at then begin
        mark.(r) <- !at;
        incr c
      end
    in
    let remove r =
      if mark.(r) = !at then begin
        mark.(r) <- -1;
        decr c
      end
    in
    let by_site = ref [] in
    for k = 0 to n - 1 do
      let b = block k in
      let nb = Array.length b.Block.body in
      let counts = Array.make (nb + 1) 0 in
      at := k;
      c := 0;
      Liveness.iter_live_out live k add;
      List.iter add (Block.term_uses b);
      counts.(nb) <- !c;
      for i = nb - 1 downto 0 do
        let ins = b.Block.body.(i) in
        Instr.iter_defs remove ins;
        Instr.iter_uses add ins;
        counts.(i) <- !c
      done;
      let w = weight.(k) and m = multiplier k in
      let prefix = Cfg.rpo_label cfg k ^ ":" in
      for i = 0 to nb do
        let ace = float_of_int counts.(i) /. nregs in
        by_site :=
          { key = prefix ^ string_of_int i; exposure = w; score = w *. ace *. m } :: !by_site
      done
    done;
    (* ---- per-def windows: def -> last use, across block boundaries ---- *)
    let bypass = Array.make n Bytes.empty in
    (match ctx.Context.claims with
    | Some c ->
      List.iter
        (fun (l, j) ->
          match Cfg.rpo_number cfg l with
          | Some k when j >= 0 && j < Block.num_instrs (block k) ->
            if Bytes.length bypass.(k) = 0 then
              bypass.(k) <- Bytes.make (Block.num_instrs (block k)) '\000';
            Bytes.set bypass.(k) j '\001'
          | _ -> ())
        c.Context.bypass_stores
    | None -> ());
    let bypass_at k j = j < Bytes.length bypass.(k) && Bytes.get bypass.(k) j <> '\000' in
    let visited = Array.make n 0 and walks = ref 0 in
    let sums = { mass = 0.0; bypassed = 0.0 } in
    (* One walk block by block, from position [j0] of block [k]: the
       value is live from [j0] through its last use before the first
       redefinition, or through the terminator when it is live there. *)
    let rec block_from walk d k j0 =
      let b = block k in
      let body = b.Block.body in
      let nb = Array.length body in
      let w = weight.(k) in
      let last = ref (-1) and j = ref j0 and redefined = ref false in
      while (not !redefined) && !j < nb do
        let ins = body.(!j) in
        if Instr.reads ins d then last := !j;
        if Instr.writes ins d then redefined := true else incr j
      done;
      let live_out = Liveness.mem_live_out live k d in
      let through =
        (not !redefined)
        && (live_out || match b.Block.term with Block.Branch (r, _, _) -> r = d | _ -> false)
      in
      for j = j0 to if through then nb else !last do
        sums.mass <- sums.mass +. w;
        if j < nb && bypass_at k j && Instr.reads body.(j) d then
          sums.bypassed <- sums.bypassed +. w
      done;
      if through && live_out then begin
        let succs = Cfg.rpo_succs cfg k in
        for x = 0 to Array.length succs - 1 do
          let s = succs.(x) in
          if visited.(s) <> walk && Liveness.mem_live_in live s d then begin
            visited.(s) <- walk;
            block_from walk d s 0
          end
        done
      end
    in
    (* ---- per-register table: window mass under the region multiplier,
       plus the full region mass for each coverage gap the register
       causes (a stale restore strikes every use in the region) ---- *)
    let reg_exposure = Array.make (max_reg + 1) 0.0 in
    let reg_score = Array.make (max_reg + 1) 0.0 in
    let reg_seen = Array.make (max_reg + 1) false in
    let add_reg r exp sc =
      reg_seen.(r) <- true;
      reg_exposure.(r) <- reg_exposure.(r) +. exp;
      reg_score.(r) <- reg_score.(r) +. sc
    in
    let windows = ref [] in
    (* the def site [on_def] is called for: one closure for every def *)
    let at_block = ref 0 and at_index = ref 0 in
    let on_def d =
      let k = !at_block and i = !at_index in
      let w_region =
        let q = region_of.(k) in
        if q < 0 then -1 else regions.(q).Regions_view.id
      in
      let m = if w_region < 0 then base_escape else multiplier k in
      sums.mass <- 0.0;
      sums.bypassed <- 0.0;
      incr walks;
      visited.(k) <- !walks;
      block_from !walks d k (i + 1);
      let w_length = sums.mass and w_bypass = sums.bypassed in
      add_reg d w_length ((w_length *. m) +. (w_bypass *. bypass_factor));
      windows :=
        { w_block = Cfg.rpo_label cfg k; w_index = i; w_reg = d; w_region; w_length; w_bypass }
        :: !windows
    in
    for k = 0 to n - 1 do
      let body = (block k).Block.body in
      at_block := k;
      for i = 0 to Array.length body - 1 do
        at_index := i;
        Instr.iter_defs on_def body.(i)
      done
    done;
    List.iter
      (fun (rid, _, r) ->
        let q = ref 0 in
        while regions.(!q).Regions_view.id <> rid do
          incr q
        done;
        add_reg r 0.0 (gap_factor *. region_mass.(!q)))
      gaps;
    let by_register = ref [] in
    for r = max_reg downto 0 do
      if reg_seen.(r) then
        by_register :=
          { key = Reg.to_string r; exposure = reg_exposure.(r); score = reg_score.(r) }
          :: !by_register
    done;
    (* ---- per-region table ---- *)
    let by_region =
      Array.to_list
        (Array.mapi
           (fun q { Regions_view.id; _ } ->
             let m = region_mass.(q) in
             { key = string_of_int id; exposure = m; score = m *. region_multiplier.(q) })
           regions)
    in
    let region_score_sum = List.fold_left (fun acc r -> acc +. r.score) 0.0 by_region in
    {
      windows = List.rev !windows;
      by_site = rank (List.rev !by_site);
      by_register = rank !by_register;
      by_region = rank by_region;
      gaps;
      total_mass = !total_mass;
      predicted_avf = (if !total_mass > 0.0 then region_score_sum /. !total_mass else 0.0);
      wcdl;
    }
  end

(* The registry entry point only needs the gap list — skip the table
   construction so per-pass incremental lint reads the context's one
   coverage fixpoint, not a full window walk, each time a pass dirties
   the read set. *)
let check (ctx : Context.t) =
  let gaps =
    if (Context.regions ctx).Regions_view.has_regions then
      Recoverability.uncovered_live_ins ctx
    else []
  in
  List.map
    (fun (rid, head, r) ->
      Diag.make ~check:name ~severity:Diag.Warn ~func:ctx.Context.func.Func.name
        ~block:head
        (Printf.sprintf
           "vulnerability window never closes: %s is live into region %d without checkpoint coverage, so every rollback of the region restores a stale value"
           (Reg.to_string r) rid))
    gaps

(* ------------------------------ JSON ------------------------------ *)

let f = Printf.sprintf "%.6f"

let table_to_json rows =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf "{\"key\":\"%s\",\"exposure\":%s,\"score\":%s}"
             (Diag.json_escape r.key) (f r.exposure) (f r.score))
         rows)
  ^ "]"

let to_json t =
  Printf.sprintf
    "{\"wcdl\":%d,\"total_mass\":%s,\"predicted_avf\":%s,\"gaps\":[%s],\"by_site\":%s,\"by_register\":%s,\"by_region\":%s}"
    t.wcdl (f t.total_mass) (f t.predicted_avf)
    (String.concat ","
       (List.map
          (fun (rid, head, r) ->
            Printf.sprintf "{\"region\":%d,\"head\":\"%s\",\"reg\":\"%s\"}" rid
              (Diag.json_escape head)
              (Diag.json_escape (Reg.to_string r)))
          t.gaps))
    (table_to_json t.by_site)
    (table_to_json t.by_register)
    (table_to_json t.by_region)
