(* Snapshot plans: one fault-free pilot run per (compiled program, config)
   recording periodic copies of the recovery executor, from which
   every fault of a campaign forks at the snapshot nearest its strike
   site. Forked outcomes are byte-identical to from-scratch replays (the
   differential tests pin this), so campaigns pay O(suffix) per fault
   instead of O(trace). *)

open Turnpike_ir

type plan = {
  pilot : Recovery.pilot;
  checked : (Interp.state * bool) option Atomic.t;
      (* the last golden the pilot's output was compared with, and whether
         they agreed; an immutable pair, so every domain reads a whole one *)
}

(* A fork replays at most [every] steps from its snapshot to its strike.
   After a recovery it converges at its own strike site when it can;
   only when that check fails is its next check the snapshot after the
   strike, at most [every] steps on. A smaller spacing buys cheaper forks
   with bigger plans: 256 halves the replay before the strike against
   512, and 128 held about a third more memory on the campaign kernels
   whose forks reconverge early. *)
let every = 256

let record ?config compiled =
  { pilot = Recovery.capture_pilot ?config ~every compiled; checked = Atomic.make None }

let pilot_outcome plan = plan.pilot.Recovery.outcome

(* Two domains that find no answer for the same golden both compute it and
   store the same pair, so the race costs a repeated compare, never a
   wrong answer. *)
let pilot_matches plan ~(golden : Interp.state) =
  match Atomic.get plan.checked with
  | Some (g, agree) when g == golden -> agree
  | Some _ | None ->
    let agree =
      Mem.first_diff ~lo:Layout.data_base ~hi:Layout.spill_base golden.Interp.mem
        (pilot_outcome plan).Recovery.state.Interp.mem
      = None
    in
    Atomic.set plan.checked (Some (golden, agree));
    agree

let snapshot_count plan = Array.length plan.pilot.Recovery.snapshots

(* Latest snapshot at or before [step]. The array always holds a step-0
   snapshot, so the search cannot come up empty for step >= 0. *)
let nearest plan ~step =
  let snaps = plan.pilot.Recovery.snapshots in
  let lo = ref 0 and hi = ref (Array.length snaps - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Recovery.snapshot_step snaps.(mid) <= step then lo := mid else hi := mid - 1
  done;
  snaps.(!lo)

let fork ?tel plan (fault : Fault.t) =
  Recovery.resume ?tel plan.pilot ~from:(nearest plan ~step:fault.Fault.at_step)
    ~faults:[ fault ]
