(* Fault-campaign construction: deterministic sets of faults spread across
   a program's dynamic execution, targeting registers that actually carry
   values at the injection point (so the campaign stresses recovery rather
   than flipping dead bits). *)

open Turnpike_ir

let mix a b =
  let z = ref ((a * 0x9E3779B9) + (b * 0x85EBCA6B) + 0x165667B1) in
  z := !z lxor (!z lsr 15);
  z := !z * 0x2C1B3C6D;
  z := !z lxor (!z lsr 13);
  !z land max_int

(* Write sites as two parallel arrays: the step of every event that writes
   a register, in trace order, and the register it writes. Two passes (count,
   then fill), so the scan allocates nothing per event. *)
let write_sites (trace : Trace.t) =
  let iter_writes f =
    Array.iteri
      (fun step -> function
        | Trace.Alu { dst = Some d; _ } | Trace.Load { dst = d; _ } -> f step d
        | Trace.Alu _ | Trace.Store _ | Trace.Ckpt _ | Trace.Branch _
        | Trace.Boundary _ ->
          ())
      trace.Trace.events
  in
  let n = ref 0 in
  iter_writes (fun _ _ -> incr n);
  let steps = Array.make !n 0 and regs = Array.make !n 0 in
  let k = ref 0 in
  iter_writes (fun step d ->
      steps.(!k) <- step;
      regs.(!k) <- d;
      incr k);
  (steps, regs)

(* Strike sites (the write's step + 1, clamped into the trace, and its
   register) are distinct because write steps are: only the writes at the
   final two steps both strike the last step, and they collide when they
   hit the same register. *)
let count_strike_sites ~last_step steps regs =
  let n = Array.length steps in
  if n >= 2 && steps.(n - 1) = last_step && steps.(n - 2) = last_step - 1
     && regs.(n - 1) = regs.(n - 2)
  then n - 1
  else n

let strike_sites (trace : Trace.t) =
  let steps, regs = write_sites trace in
  count_strike_sites ~last_step:(Array.length trace.Trace.events - 1) steps regs

(* Register values are 63-bit OCaml ints and Fault.single_bit accepts bits
   0..62; draw over the full width so high bits are struck too. *)
let value_bits = 63

let campaign ?(seed = 42) ~count (trace : Trace.t) =
  let steps, regs = write_sites trace in
  let n = Array.length steps in
  let last_step = Array.length trace.Trace.events - 1 in
  if n = 0 || count <= 0 then []
  else begin
    (* The site and bit draws both come from the [mix seed _] stream, so
       distinct k can repeat a (step, reg, bit) triple; repeated trials
       waste campaign budget and bias the i.i.d. assumption behind the
       sequential stopping rules. Deduplicate in seeded draw order,
       topping up with extra draws (then a systematic sweep) until [count]
       distinct faults exist or the site/bit space is exhausted. *)
    let target = min count (count_strike_sites ~last_step steps regs * value_bits) in
    let seen = Hashtbl.create (2 * target) in
    let acc = ref [] in
    let added = ref 0 in
    let add site bit =
      (* Strike one step after the write so the fault lands on a live,
         freshly produced value — clamped into the trace when the
         sampled write is its final event. *)
      let at_step = min (steps.(site) + 1) last_step and reg = regs.(site) in
      if not (Hashtbl.mem seen (at_step, reg, bit)) then begin
        Hashtbl.replace seen (at_step, reg, bit) ();
        acc := Fault.single_bit ~at_step ~reg ~bit :: !acc;
        incr added
      end
    in
    let k = ref 0 in
    let max_draws = (64 * target) + 256 in
    while !added < target && !k < max_draws do
      add (mix seed !k mod n) (mix seed ((!k * 7) + 1) mod value_bits);
      incr k
    done;
    (* Hashed draws starved (tiny site space): sweep site-major so the
       remaining distinct faults are reached deterministically. *)
    let i = ref 0 in
    while !added < target && !i < n * value_bits do
      add (!i mod n) (!i / n);
      incr i
    done;
    List.rev !acc
  end
