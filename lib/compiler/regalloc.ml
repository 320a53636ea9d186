(* Linear-scan register allocation with whole-interval spilling.

   The spill-cost model is the vehicle for the paper's store-aware register
   allocation (§4.1.1): a traditional allocator weighs reads and writes
   equally, so frequently-written variables may be spilled, turning every
   write into a spill store that pressures the store buffer. Store-aware
   allocation multiplies the write weight so those variables stay in
   registers. The number of allocatable registers is identical in both
   modes, preserving allocation quality. *)

open Turnpike_ir

type config = {
  nregs : int; (* architectural registers, id 0 = hard-wired zero *)
  store_aware : bool;
  write_weight : int; (* write multiplier in store-aware mode *)
}

let default_config = { nregs = 32; store_aware = false; write_weight = 4 }

type result = {
  func : Func.t;
  spilled_vregs : int;
  spill_stores : int;
  spill_loads : int;
  assignment : (Reg.t, Reg.t) Hashtbl.t;
  spill_slots : (Reg.t, int) Hashtbl.t;
}

type location = Phys of Reg.t | Spill of int

let location_of result r =
  if not (Reg.is_virtual r) then Some (Phys r)
  else
    match Hashtbl.find_opt result.assignment r with
    | Some p -> Some (Phys p)
    | None -> (
      match Hashtbl.find_opt result.spill_slots r with
      | Some s -> Some (Spill s)
      | None -> None)

(* Rewrite a program's input-register list through the allocation:
   register-allocated inputs keep their value in the assigned physical
   register; spilled inputs start life in their spill slot. *)
let remap_inputs result reg_init =
  List.fold_left
    (fun (regs, mem) (r, v) ->
      match location_of result r with
      | Some (Phys p) -> ((p, v) :: regs, mem)
      | Some (Spill s) -> (regs, (Turnpike_ir.Layout.spill_slot s, v) :: mem)
      | None -> (regs, mem))
    ([], []) (List.rev reg_init)

type interval = {
  vreg : Reg.t;
  mutable first : int;
  mutable last : int;
  mutable weight : float;
}

let scratch_regs config =
  [ config.nregs - 1; config.nregs - 2; config.nregs - 3 ]

let pool config ~used_phys =
  let scratch = scratch_regs config in
  let rec build i acc =
    if i >= config.nregs then List.rev acc
    else if List.mem i scratch || Reg.Set.mem i used_phys then build (i + 1) acc
    else build (i + 1) (i :: acc)
  in
  build 1 [] (* r0 is the zero register *)

let run ?(config = default_config) func =
  let cfg = Cfg.build func in
  let live = Liveness.compute cfg in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  (* Global instruction numbering in layout order. *)
  let block_range = Hashtbl.create 32 in
  let counter = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      let s = !counter in
      counter := !counter + Array.length b.Block.body + 1 (* terminator *);
      Hashtbl.replace block_range b.Block.label (s, !counter - 1))
    (Func.blocks func);
  (* Live intervals and spill weights. *)
  let intervals : (Reg.t, interval) Hashtbl.t = Hashtbl.create 64 in
  let used_phys = ref Reg.Set.empty in
  let touch r p ~is_def ~depth =
    if Reg.is_virtual r then begin
      let iv =
        match Hashtbl.find_opt intervals r with
        | Some iv -> iv
        | None ->
          let iv = { vreg = r; first = p; last = p; weight = 0.0 } in
          Hashtbl.replace intervals r iv;
          iv
      in
      if p < iv.first then iv.first <- p;
      if p > iv.last then iv.last <- p;
      let freq = 10.0 ** float_of_int (min depth 3) in
      let w =
        if is_def && config.store_aware then float_of_int config.write_weight
        else 1.0
      in
      iv.weight <- iv.weight +. (w *. freq)
    end
    else if not (Reg.is_zero r) then used_phys := Reg.Set.add r !used_phys
  in
  let extend r p =
    if Reg.is_virtual r then
      match Hashtbl.find_opt intervals r with
      | Some iv ->
        if p < iv.first then iv.first <- p;
        if p > iv.last then iv.last <- p
      | None ->
        Hashtbl.replace intervals r { vreg = r; first = p; last = p; weight = 0.0 }
  in
  List.iter
    (fun (b : Block.t) ->
      let s, e = Hashtbl.find block_range b.Block.label in
      let depth = Loop_info.depth loops b.Block.label in
      Reg.Set.iter (fun r -> extend r s) (Liveness.live_in live b.Block.label);
      Reg.Set.iter (fun r -> extend r e) (Liveness.live_out live b.Block.label);
      Array.iteri
        (fun i ins ->
          let p = s + i in
          List.iter (fun r -> touch r p ~is_def:false ~depth) (Instr.uses ins);
          List.iter (fun r -> touch r p ~is_def:true ~depth) (Instr.defs ins))
        b.Block.body;
      List.iter (fun r -> touch r e ~is_def:false ~depth) (Block.term_uses b))
    (Func.blocks func);
  (* Linear scan with min-weight eviction. *)
  let sorted =
    List.sort
      (fun a b -> compare (a.first, a.last) (b.first, b.last))
      (Hashtbl.fold (fun _ iv acc -> iv :: acc) intervals [])
  in
  let free = ref (pool config ~used_phys:!used_phys) in
  let assignment : (Reg.t, Reg.t) Hashtbl.t = Hashtbl.create 64 in
  let spilled : (Reg.t, int) Hashtbl.t = Hashtbl.create 16 in
  let next_slot = ref 0 in
  let spill_slot_of r =
    match Hashtbl.find_opt spilled r with
    | Some s -> s
    | None ->
      let s = !next_slot in
      incr next_slot;
      Hashtbl.replace spilled r s;
      s
  in
  let active : interval list ref = ref [] in
  let expire p =
    let expired, kept = List.partition (fun iv -> iv.last < p) !active in
    List.iter
      (fun iv ->
        match Hashtbl.find_opt assignment iv.vreg with
        (* Round-robin recycling (append, don't push): distinct values keep
           distinct physical registers whenever pressure allows, preserving
           the single-definition property that checkpoint pruning's
           reconstruction analysis depends on. *)
        | Some phys -> free := !free @ [ phys ]
        | None -> ())
      expired;
    active := kept
  in
  List.iter
    (fun iv ->
      expire iv.first;
      match !free with
      | phys :: rest ->
        free := rest;
        Hashtbl.replace assignment iv.vreg phys;
        active := iv :: !active
      | [] ->
        (* Evict the cheapest of active + current. *)
        let victim =
          List.fold_left
            (fun best c -> if c.weight < best.weight then c else best)
            iv !active
        in
        if victim == iv then ignore (spill_slot_of iv.vreg)
        else begin
          let phys = Hashtbl.find assignment victim.vreg in
          Hashtbl.remove assignment victim.vreg;
          ignore (spill_slot_of victim.vreg);
          Hashtbl.replace assignment iv.vreg phys;
          active := iv :: List.filter (fun c -> not (c == victim)) !active
        end)
    sorted;
  (* Rewrite: spilled uses load into scratch, spilled defs store from
     scratch; everything else maps to its physical register. *)
  let s1, s2, s3 =
    match scratch_regs config with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let spill_stores = ref 0 and spill_loads = ref 0 in
  let map_reg scratch_assoc r =
    if not (Reg.is_virtual r) then r
    else
      match List.assq_opt r scratch_assoc with
      | Some s -> s
      | None -> (
        match Hashtbl.find_opt assignment r with
        | Some p -> p
        | None -> s3 (* dead value with no interval pressure: scratch *))
  in
  Func.iter_blocks
    (fun b ->
      let out = ref [] in
      Array.iter
        (fun ins ->
          let uses = List.filter (fun r -> Hashtbl.mem spilled r) (Instr.uses ins) in
          let uses = List.sort_uniq compare uses in
          let scratch_assoc =
            List.mapi (fun i r -> (r, if i = 0 then s1 else s2)) uses
          in
          List.iter
            (fun (r, s) ->
              incr spill_loads;
              out :=
                Instr.Load (s, Reg.zero, Layout.spill_slot (spill_slot_of r), Instr.Spill_mem)
                :: !out)
            scratch_assoc;
          let defs = List.filter (fun r -> Hashtbl.mem spilled r) (Instr.defs ins) in
          let def_assoc = List.map (fun r -> (r, s3)) defs in
          let ins' = Instr.rename (map_reg (scratch_assoc @ def_assoc)) ins in
          out := ins' :: !out;
          List.iter
            (fun (r, s) ->
              incr spill_stores;
              out :=
                Instr.Store (s, Reg.zero, Layout.spill_slot (spill_slot_of r), Instr.Spill_mem)
                :: !out)
            def_assoc)
        b.Block.body;
      Block.set_body b (List.rev !out);
      (* Terminator condition register. *)
      (match b.Block.term with
      | Block.Branch (r, l1, l2) when Hashtbl.mem spilled r ->
        incr spill_loads;
        Block.set_body b
          (Block.body_list b
          @ [ Instr.Load (s1, Reg.zero, Layout.spill_slot (spill_slot_of r), Instr.Spill_mem) ]);
        b.Block.term <- Block.Branch (s1, l1, l2)
      | Block.Branch _ | Block.Jump _ | Block.Ret -> ());
      Block.rename_term (map_reg []) b)
    func;
  {
    func;
    spilled_vregs = Hashtbl.length spilled;
    spill_stores = !spill_stores;
    spill_loads = !spill_loads;
    assignment;
    spill_slots = spilled;
  }
