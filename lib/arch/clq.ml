(* Committed load queue (paper §4.3.1): dynamically proves the absence of
   WAR dependence so regular stores can bypass verification. Two designs:
   the ideal CAM design records every committed load address of a region;
   the compact design keeps one [min,max] range per region with a small
   fixed number of entries and the Fig-13 enable/disable automaton. *)

type design = Ideal | Compact of int

module ISet = Set.Make (Int)

type region_entry = {
  region : int;
  mutable addrs : ISet.t; (* ideal *)
  mutable lo : int; (* compact *)
  mutable hi : int;
}

type t = {
  design : design;
  mutable entries : region_entry list; (* one per un-cleared region, any order *)
  mutable enabled : bool;
  mutable overflows : int;
  (* entries in use at each sample: how many samples, their sum, their max *)
  mutable samples : int;
  mutable populated_total : int;
  mutable populated_max : int;
}

let create design =
  (match design with
  | Compact n when n <= 0 -> invalid_arg "Clq.create: entries must be positive"
  | Compact _ | Ideal -> ());
  {
    design;
    entries = [];
    enabled = true;
    overflows = 0;
    samples = 0;
    populated_total = 0;
    populated_max = 0;
  }

let copy t =
  (* Deep copy for executor snapshotting: entries hold mutable fields, so
     each gets a fresh record (the address sets are immutable and shared). *)
  {
    t with
    entries =
      List.map
        (fun e -> { e with region = e.region })
        t.entries;
  }

let enabled t = t.enabled

let entries_in_use t = List.length t.entries

let capacity t = match t.design with Ideal -> max_int | Compact n -> n

(* [region]'s entry, or [no_entry] when it has none: the lookup runs on
   every load and store, so it allocates neither a closure nor an option. *)
let no_entry = { region = -1; addrs = ISet.empty; lo = 0; hi = 0 }

let rec find region = function
  | [] -> no_entry
  | e :: rest -> if e.region = region then e else find region rest

(* [entries] without [region]'s entry; the list itself when it has none. *)
let rec remove region = function
  | [] -> []
  | e :: rest as entries ->
    if e.region = region then rest
    else
      let rest' = remove region rest in
      if rest' == rest then entries else e :: rest'

let disable t =
  t.enabled <- false;
  t.entries <- [];
  t.overflows <- t.overflows + 1

let record_load t ~region addr =
  if not t.enabled then false
  else begin
    let e = find region t.entries in
    if e != no_entry then begin
      (match t.design with
      | Ideal -> e.addrs <- ISet.add addr e.addrs
      | Compact _ ->
        if addr < e.lo then e.lo <- addr;
        if addr > e.hi then e.hi <- addr);
      false
    end
    else if entries_in_use t >= capacity t then begin
      disable t;
      true
    end
    else begin
      let addrs =
        match t.design with Ideal -> ISet.singleton addr | Compact _ -> ISet.empty
      in
      t.entries <- { region; addrs; lo = addr; hi = addr } :: t.entries;
      false
    end
  end

let war_free t ~region addr =
  (* A store may bypass verification only when the fast-release logic is
     enabled and no prior load of its own region may alias it. *)
  t.enabled
  &&
  let e = find region t.entries in
  e == no_entry
  ||
  match t.design with
  | Ideal -> not (ISet.mem addr e.addrs)
  | Compact _ -> addr < e.lo || addr > e.hi

let on_region_verified t ~region = t.entries <- remove region t.entries

let maybe_enable t ~unverified_regions =
  (* Fig 13: after an overflow the logic stays off until a region boundary
     at which the prior region has been verified (at most the just-closed
     region is still pending). *)
  if (not t.enabled) && unverified_regions <= 1 then t.enabled <- true

let sample t =
  let n = entries_in_use t in
  t.samples <- t.samples + 1;
  t.populated_total <- t.populated_total + n;
  if n > t.populated_max then t.populated_max <- n

let overflows t = t.overflows

let max_populated t = t.populated_max

let mean_populated t =
  if t.samples = 0 then 0.0
  else float_of_int t.populated_total /. float_of_int t.samples
