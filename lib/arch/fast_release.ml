(* Fast release (paper §4.3): the CLQ's WAR-free verdicts and the Fig-13
   automaton (§4.3.1), and checkpoint coloring (§4.3.2), for the timing
   model and the recovery executor alike. The models call in on every
   load, store and checkpoint of a core that has either structure, so
   each entry point is one match and one call. *)

type t = { clq : Clq.t option; col : Coloring.t option }

let create ~clq ~coloring ~colors ~nregs =
  match (clq, coloring) with
  | None, false -> None
  | Some _, _ | None, true ->
    Some
      {
        clq = Option.map Clq.create clq;
        col = (if coloring then Some (Coloring.create ~colors ~nregs ()) else None);
      }

let copy t = { clq = Option.map Clq.copy t.clq; col = Option.map Coloring.copy t.col }

let record_load t ~region addr =
  match t.clq with Some clq -> Clq.record_load clq ~region addr | None -> false

let war_free t ~region addr =
  match t.clq with Some clq -> Clq.war_free clq ~region addr | None -> false

let color t ~reg ~region =
  match t.col with Some col -> Coloring.try_assign col ~reg ~region | None -> None

let verify t ~region ~unverified =
  (match t.col with Some col -> Coloring.on_region_verified col ~region | None -> ());
  match t.clq with
  | Some clq ->
    Clq.on_region_verified clq ~region;
    Clq.maybe_enable clq ~unverified_regions:unverified
  | None -> ()

let enable_at_boundary t ~unverified =
  match t.clq with
  | Some clq -> Clq.maybe_enable clq ~unverified_regions:unverified
  | None -> ()

let discard t ~regions =
  (match t.col with Some col -> Coloring.discard_unverified col ~regions | None -> ());
  match t.clq with
  | Some clq -> List.iter (fun region -> Clq.on_region_verified clq ~region) regions
  | None -> ()

let drain_color t ~reg =
  match t.col with
  | Some col ->
    (* Drain-time slot choice: a free color if one exists, else overwrite
       the currently verified color (the value being replaced is
       superseded by this newer verified one). *)
    let c =
      match Coloring.free_color col ~reg with
      | Some c -> c
      | None -> Option.value (Coloring.verified_color col ~reg) ~default:0
    in
    Coloring.force_verified col ~reg ~color:c;
    c
  | None -> 0

let sample t = match t.clq with Some clq -> Clq.sample clq | None -> ()

let clq_entries t = match t.clq with Some clq -> Clq.entries_in_use clq | None -> 0

let record_stats t (stats : Sim_stats.t) =
  (match t.clq with
  | Some clq ->
    stats.clq_overflows <- Clq.overflows clq;
    stats.clq_mean_populated <- Clq.mean_populated clq;
    stats.clq_max_populated <- Clq.max_populated clq
  | None -> ());
  match t.col with
  | Some col -> stats.coloring_fallbacks <- Coloring.fallbacks col
  | None -> ()
