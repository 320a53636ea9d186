(* Hardware coloring (paper §4.3.2): a pool of [Layout.colors] alternative
   checkpoint storage locations per register, so that checkpoint stores can
   be released to cache without verification while the previously verified
   checkpoint value stays intact. Three logical maps: Available (free
   colors), Used (per un-verified region) and Verified. *)

type cstate = Free | Used of int (* dynamic region *) | Verified

type t = {
  nregs : int;
  states : cstate array array; (* states.(reg).(color) *)
  mutable fast_assigned : int;
  mutable fallbacks : int;
}

let create ?(colors = Turnpike_ir.Layout.colors) ~nregs () =
  if nregs <= 0 then invalid_arg "Coloring.create: nregs must be positive";
  if colors <= 0 then invalid_arg "Coloring.create: colors must be positive";
  {
    nregs;
    states = Array.init nregs (fun _ -> Array.make colors Free);
    fast_assigned = 0;
    fallbacks = 0;
  }

let copy t = { t with states = Array.map Array.copy t.states }

let in_range t reg = reg >= 0 && reg < t.nregs

let try_assign t ~reg ~region =
  if not (in_range t reg) then None
  else begin
    let row = t.states.(reg) in
    let rec find c =
      if c >= Array.length row then None
      else match row.(c) with Free -> Some c | Used _ | Verified -> find (c + 1)
    in
    match find 0 with
    | Some c ->
      row.(c) <- Used region;
      t.fast_assigned <- t.fast_assigned + 1;
      Some c
    | None ->
      t.fallbacks <- t.fallbacks + 1;
      None
  end

let on_region_verified t ~region =
  (* For every register checkpointed by [region] through a color: the old
     verified color returns to the pool and the region's color becomes the
     verified one. Runs at every region verification, so it loops rather
     than allocating closures. *)
  for reg = 0 to Array.length t.states - 1 do
    let row = t.states.(reg) in
    let newly = ref (-1) in
    for c = 0 to Array.length row - 1 do
      match row.(c) with
      | Used r when r = region -> newly := c
      | Free | Used _ | Verified -> ()
    done;
    if !newly >= 0 then begin
      for c = 0 to Array.length row - 1 do
        match row.(c) with Verified -> row.(c) <- Free | Free | Used _ -> ()
      done;
      row.(!newly) <- Verified
    end
  done

let verified_color t ~reg =
  if not (in_range t reg) then None
  else
    let row = t.states.(reg) in
    let rec find c =
      if c >= Array.length row then None
      else match row.(c) with Verified -> Some c | Free | Used _ -> find (c + 1)
    in
    find 0

let used_color t ~reg ~region =
  if not (in_range t reg) then None
  else
    let row = t.states.(reg) in
    let rec find c =
      if c >= Array.length row then None
      else match row.(c) with Used r when r = region -> Some c | _ -> find (c + 1)
    in
    find 0

let free_color t ~reg =
  if not (in_range t reg) then None
  else
    let row = t.states.(reg) in
    let rec find c =
      if c >= Array.length row then None
      else match row.(c) with Free -> Some c | Used _ | Verified -> find (c + 1)
    in
    find 0

let force_verified t ~reg ~color =
  (* A quarantined (fallback) checkpoint drains into [color] at its
     region's verification: that slot becomes the verified storage and any
     other verified color returns to the pool. *)
  if in_range t reg then begin
    let row = t.states.(reg) in
    Array.iteri (fun c s -> if c <> color && s = Verified then row.(c) <- Free) row;
    row.(color) <- Verified
  end

let invalidate_verified t ~reg =
  (* A quarantined (fallback) checkpoint of [reg] just verified: the base
     slot now holds the verified value, so any previously verified color
     returns to the pool. *)
  if in_range t reg then
    Array.iteri
      (fun c s -> if s = Verified then t.states.(reg).(c) <- Free)
      t.states.(reg)

let discard_unverified t ~regions =
  (* Error recovery: colors assigned by regions that will be re-executed
     (or were corrupted) return to the pool. *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun c s ->
          match s with
          | Used r when List.mem r regions -> row.(c) <- Free
          | Used _ | Free | Verified -> ())
        row)
    t.states

let fast_assigned t = t.fast_assigned
let fallbacks t = t.fallbacks
