(* Functional (architectural) interpreter. It defines the reference
   semantics used for correctness checks, produces dynamic traces for the
   timing model, and exposes a single-step API that the resilience engine
   drives for fault injection and region-restart recovery.

   A program is decoded once before it runs: block labels become array
   indices, each terminator records its target indices and the trace
   event of each direction, and each instruction gets its trace event
   built once, shared by all of its dynamic instances. The state is a
   dense register file, a paged word memory ({!Mem}) and an index-based
   pc, so a step hashes no label and no address and allocates nothing:
   a load or a store hands its static event and its address to the hook,
   which builds the dynamic event only if it keeps it. *)

type term =
  | Jump of { target : int; event : Trace.event option }
      (* [None]: a jump to the layout successor, which emits nothing *)
  | Branch of {
      cond : Reg.t;
      if_true : int;
      on_true : Trace.event;
      if_false : int;
      on_false : Trace.event;
    }
  | Ret

type block = {
  label : string;
  body : Instr.t array;
  events : Trace.event array;
      (* one per body instruction; a load's or store's address is a
         placeholder, filled in per dynamic instance *)
  term : term;
}

type program = {
  name : string;
  blocks : block array; (* in layout order *)
  indices : (string, int) Hashtbl.t; (* label -> block index *)
}

type state = {
  mutable regs : int array;
  mem : Mem.t;
  mutable block : int;
  mutable index : int;
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

(* [regs.(0)] is never written, so {!Reg.zero} reads 0 without a test of
   its own; registers past the end of the file read 0 too. *)
let get_reg st r = if r > 0 && r < Array.length st.regs then Array.unsafe_get st.regs r else 0

let set_reg st r v =
  if not (Reg.is_zero r) then begin
    let n = Array.length st.regs in
    if r >= n then begin
      let regs = Array.make (max (r + 1) (2 * n)) 0 in
      Array.blit st.regs 0 regs 0 n;
      st.regs <- regs
    end;
    st.regs.(r) <- v
  end

let get_mem st a = Mem.get st.mem a

let set_mem st a v = Mem.set st.mem a v

let operand_value st = function
  | Instr.Reg r -> get_reg st r
  | Instr.Imm i -> i

let lookup indices ~name l =
  match Hashtbl.find_opt indices l with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Interp: unknown label %s in %s" l name)

let block_index p l = lookup p.indices ~name:p.name l

let label p st = p.blocks.(st.block).label

let instr p st =
  let b = p.blocks.(st.block) in
  if st.index < Array.length b.body then Some b.body.(st.index) else None

let store_class = function
  | Instr.Spill_mem -> Trace.Regular_spill
  | Instr.App_mem | Instr.Ckpt_mem -> Trace.Regular_app

let static_event (i : Instr.t) : Trace.event =
  match i with
  | Binop (_, d, _, _) | Cmp (_, d, _, _) | Mov (d, _) ->
    Alu { dst = Some d; srcs = Instr.uses i }
  | Load (d, _, _, kind) -> Load { dst = d; srcs = Instr.uses i; addr = 0; kind }
  | Store (_, _, _, kind) -> Store { srcs = Instr.uses i; addr = 0; cls = store_class kind }
  | Ckpt r -> Ckpt { src = r }
  | Boundary id -> Boundary { region = id }
  | Nop -> Alu { dst = None; srcs = [] }

let at_addr (e : Trace.event) addr : Trace.event =
  match e with
  | Load l -> Load { l with addr }
  | Store s -> Store { s with addr }
  | Alu _ | Ckpt _ | Branch _ | Boundary _ -> e

let decode (prog : Prog.t) =
  let func = prog.Prog.func in
  let labels = Array.of_list (Func.labels func) in
  let indices = Hashtbl.create (2 * Array.length labels) in
  Array.iteri (fun k l -> Hashtbl.replace indices l k) labels;
  let resolve = lookup indices ~name:func.Func.name in
  let decode_block k label =
    let b = Func.block func label in
    let site = Hashtbl.hash label in
    (* A control transfer to the layout successor is a fall-through: no
       fetch redirect, and for an unconditional jump not even an
       instruction (region-boundary block splits are PC markers, not
       code). A branch's [taken] flag means "fetch redirected". *)
    let term =
      match b.Block.term with
      | Block.Jump l ->
        let target = resolve l in
        let event =
          if target = k + 1 then None
          else Some (Trace.Branch { srcs = []; taken = true; pc = site })
        in
        Jump { target; event }
      | Block.Branch (r, l1, l2) ->
        let edge l =
          let t = resolve l in
          (t, Trace.Branch { srcs = [ r ]; taken = t <> k + 1; pc = site })
        in
        let if_true, on_true = edge l1 and if_false, on_false = edge l2 in
        Branch { cond = r; if_true; on_true; if_false; on_false }
      | Block.Ret -> Ret
    in
    let body = Array.copy b.Block.body in
    { label; body; events = Array.map static_event body; term }
  in
  { name = func.Func.name; blocks = Array.mapi decode_block labels; indices }

let init (prog : Prog.t) =
  let func = prog.Prog.func in
  let rec entry k = function
    | l :: rest -> if String.equal l func.Func.entry then k else entry (k + 1) rest
    | [] -> invalid_arg (Printf.sprintf "Interp.init: entry %s not in %s" func.entry func.name)
  in
  let st =
    {
      regs = Array.make (Func.max_reg func + 1) 0;
      mem = Mem.create ();
      block = entry 0 (Func.labels func);
      index = 0;
      steps = 0;
      halted = false;
    }
  in
  List.iter (fun (a, v) -> set_mem st a v) prog.mem_init;
  (* Seed the base-color checkpoint slot of every initialised register: the
     initial architectural state counts as verified, so a rollback that
     restarts the entry region restores inputs instead of zeros. *)
  List.iter
    (fun (r, v) ->
      set_reg st r v;
      if not (Reg.is_zero r) then set_mem st (Layout.ckpt_slot ~reg:r ~color:0) v)
    prog.reg_init;
  st

let default_ckpt st r =
  set_mem st (Layout.ckpt_slot ~reg:r ~color:0) (get_reg st r)

type hooks = {
  on_ckpt : state -> Reg.t -> unit;
  on_boundary : state -> int -> unit;
  on_event : Trace.event -> unit;
  on_access : Trace.event -> int -> unit;
  write_mem : state -> int -> int -> unit;
}

let no_hooks =
  {
    on_ckpt = default_ckpt;
    on_boundary = (fun _ _ -> ());
    on_event = (fun _ -> ());
    on_access = (fun _ _ -> ());
    write_mem = set_mem;
  }

(* The data semantics of [i], reporting its static event [e]; a load or a
   store reports it with the address it accessed. *)
let exec hooks st (i : Instr.t) e =
  match i with
  | Binop (op, d, a, o) ->
    set_reg st d (Instr.eval_binop op (get_reg st a) (operand_value st o));
    hooks.on_event e
  | Cmp (c, d, a, o) ->
    set_reg st d (Instr.eval_cmp c (get_reg st a) (operand_value st o));
    hooks.on_event e
  | Mov (d, o) ->
    set_reg st d (operand_value st o);
    hooks.on_event e
  | Load (d, b, off, _) ->
    let addr = get_reg st b + off in
    set_reg st d (get_mem st addr);
    hooks.on_access e addr
  | Store (s, b, off, _) ->
    let addr = get_reg st b + off in
    hooks.write_mem st addr (get_reg st s);
    hooks.on_access e addr
  | Ckpt r ->
    hooks.on_ckpt st r;
    hooks.on_event e
  | Boundary id ->
    hooks.on_boundary st id;
    hooks.on_event e
  | Nop -> hooks.on_event e

let exec_instr hooks st i = exec hooks st i (static_event i)

let step hooks p st =
  if not st.halted then begin
    let b = p.blocks.(st.block) in
    let k = st.index in
    if k < Array.length b.body then begin
      exec hooks st (Array.unsafe_get b.body k) (Array.unsafe_get b.events k);
      st.index <- st.index + 1
    end
    else begin
      match b.term with
      | Jump { target; event } ->
        (match event with Some e -> hooks.on_event e | None -> ());
        st.block <- target;
        st.index <- 0
      | Branch { cond; if_true; on_true; if_false; on_false } ->
        if get_reg st cond <> 0 then begin
          hooks.on_event on_true;
          st.block <- if_true
        end
        else begin
          hooks.on_event on_false;
          st.block <- if_false
        end;
        st.index <- 0
      | Ret -> st.halted <- true
    end;
    st.steps <- st.steps + 1
  end

let run_for hooks p st ~fuel =
  let budget = ref fuel in
  while (not st.halted) && !budget > 0 do
    step hooks p st;
    decr budget
  done

let run ?(fuel = 10_000_000) ?(hooks = no_hooks) (prog : Prog.t) =
  let p = decode prog in
  let st = init prog in
  run_for hooks p st ~fuel;
  if not st.halted then raise Out_of_fuel;
  st

(* [trace_run] appends events to chunks of [chunk_size] slots, small
   enough to be allocated in the minor heap, where storing an event costs
   no write barrier, and concatenates them once at the end. *)
let chunk_size = 256

let trace_run ?(fuel = 1_000_000) (prog : Prog.t) =
  let p = decode prog in
  let filler = Trace.Boundary { region = 0 } in
  let full = ref [] (* filled chunks, newest first *) in
  let chunk = ref (Array.make chunk_size filler) and n = ref 0 in
  let on_event e =
    if !n = chunk_size then begin
      full := !chunk :: !full;
      chunk := Array.make chunk_size filler;
      n := 0
    end;
    Array.unsafe_set !chunk !n e;
    incr n
  in
  let on_access e addr = on_event (at_addr e addr) in
  let st = init prog in
  run_for { no_hooks with on_event; on_access } p st ~fuel;
  let events = Array.concat (List.rev (Array.sub !chunk 0 !n :: !full)) in
  ({ Trace.events; complete = st.halted }, st)
