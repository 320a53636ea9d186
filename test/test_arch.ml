(* Unit and property tests for the microarchitecture: caches, memory
   hierarchy, sensors, store buffer, RBB, CLQ, coloring, the cycle-level
   timing model and the cost model. *)

open Turnpike_arch
module Trace = Turnpike_ir.Trace
module Layout = Turnpike_ir.Layout

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  check "cold miss" true (Cache.access c ~write:false 0 = `Miss);
  check "hit same line" true (Cache.access c ~write:false 32 = `Hit);
  check "miss other line" true (Cache.access c ~write:false 64 = `Miss);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 1024B / 2-way / 64B lines = 8 sets; addresses with the same set index
     differ by 8*64 = 512. Three conflicting lines in a 2-way set evict
     the least recently used. *)
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  ignore (Cache.access c ~write:false 0);
  ignore (Cache.access c ~write:false 512);
  ignore (Cache.access c ~write:false 0) (* touch 0: now 512 is LRU *);
  ignore (Cache.access c ~write:false 1024) (* evicts 512 *);
  check "0 still resident" true (Cache.access c ~write:false 0 = `Hit);
  check "512 evicted" true (Cache.access c ~write:false 512 = `Miss)

let test_cache_writeback () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  ignore (Cache.access c ~write:true 0);
  ignore (Cache.access c ~write:false 512);
  ignore (Cache.access c ~write:false 1024);
  ignore (Cache.access c ~write:false 1536);
  check "dirty line written back" true (Cache.writebacks c >= 1)

let test_cache_invalid () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache: size must be a power of two") (fun () ->
      ignore (Cache.create ~name:"t" ~size_bytes:768 ~assoc:2 ~line_bytes:64))

let prop_cache_model_equivalence =
  (* The cache agrees with a naive LRU reference model on random traces. *)
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 50))
    (fun addrs ->
      let line_bytes = 64 and assoc = 2 and sets = 4 in
      let c =
        Cache.create ~name:"m" ~size_bytes:(line_bytes * assoc * sets) ~assoc
          ~line_bytes
      in
      (* Reference: per-set list of tags, most recent first. *)
      let model = Array.make sets [] in
      List.for_all
        (fun a ->
          let addr = a * 48 in
          let line = addr / line_bytes in
          let set = line mod sets and tag = line / sets in
          let hit_model = List.mem tag model.(set) in
          let rest = List.filter (fun t -> t <> tag) model.(set) in
          let trimmed =
            if List.length rest >= assoc then
              List.filteri (fun i _ -> i < assoc - 1) rest
            else rest
          in
          model.(set) <- tag :: trimmed;
          let hit_cache = Cache.access c ~write:false addr = `Hit in
          hit_model = hit_cache)
        addrs)

(* The flat-array cache against the record-per-line one it replaced
   (test/cache_ref.ml): seeded random geometries and access sequences,
   reads and writes, with an address space a few times the cache so that
   sets fill, lines get evicted and dirty victims get written back. Every
   access must hit or miss alike, and every counter must agree after it. *)
let test_cache_matches_reference () =
  for seed = 0 to 299 do
    let rng = Random.State.make [| seed |] in
    let int n = Random.State.int rng n in
    let line_bytes = 1 lsl int 7 and assoc = 1 + int 8 and sets = 1 lsl int 4 in
    let size_bytes = line_bytes * assoc * sets in
    let c = Cache.create ~name:"new" ~size_bytes ~assoc ~line_bytes in
    let r = Cache_ref.create ~name:"ref" ~size_bytes ~assoc ~line_bytes in
    let span = 1 + int (4 * size_bytes) in
    for step = 1 to 400 do
      let addr = if int 50 = 0 then -1 - int span else int span in
      let write = int 3 = 0 in
      if Cache.access c ~write addr <> Cache_ref.access r ~write addr then
        Alcotest.failf "seed %d, access %d (%s %d): hit/miss disagrees with the reference"
          seed step (if write then "write" else "read") addr;
      if
        Cache.hits c <> Cache_ref.hits r
        || Cache.misses c <> Cache_ref.misses r
        || Cache.writebacks c <> Cache_ref.writebacks r
        || Cache.hit_rate c <> Cache_ref.hit_rate r
      then Alcotest.failf "seed %d, access %d: counters disagree with the reference" seed step
    done
  done

(* ------------------------------------------------------------------ *)
(* Mem hierarchy / Sensor *)

let test_hierarchy_latencies () =
  let m = Mem_hierarchy.create Mem_hierarchy.default_config in
  let cfg = Mem_hierarchy.default_config in
  let first = Mem_hierarchy.load_latency m 0x10000 in
  check_int "cold = full path" (cfg.Mem_hierarchy.l1_hit + cfg.l2_hit + cfg.mem_latency) first;
  check_int "warm = l1 hit" cfg.Mem_hierarchy.l1_hit (Mem_hierarchy.load_latency m 0x10000)

let test_hierarchy_l2_hit () =
  let m = Mem_hierarchy.create Mem_hierarchy.default_config in
  let cfg = Mem_hierarchy.default_config in
  (* Fill L1 with conflicting lines so the victim stays only in L2. L1 =
     64KB 2-way 64B -> 512 sets, stride 32KB conflicts. *)
  ignore (Mem_hierarchy.load_latency m 0);
  ignore (Mem_hierarchy.load_latency m (32 * 1024));
  ignore (Mem_hierarchy.load_latency m (64 * 1024));
  ignore (Mem_hierarchy.load_latency m (96 * 1024));
  let lat = Mem_hierarchy.load_latency m 0 in
  check_int "L2 hit" (cfg.Mem_hierarchy.l1_hit + cfg.l2_hit) lat

let test_sensor_anchor () =
  check_int "paper anchor 300@2.5GHz" 10
    (Sensor.wcdl (Sensor.create ~num_sensors:300 ~clock_ghz:2.5 ()));
  let dl30 = Sensor.wcdl (Sensor.create ~num_sensors:30 ~clock_ghz:2.5 ()) in
  check "30 sensors ~30cycles" true (dl30 >= 28 && dl30 <= 34)

let test_sensor_monotonicity () =
  let dl n = Sensor.wcdl (Sensor.create ~num_sensors:n ~clock_ghz:2.5 ()) in
  check "more sensors, lower latency" true (dl 300 < dl 100 && dl 100 < dl 30);
  let at f = Sensor.wcdl (Sensor.create ~num_sensors:100 ~clock_ghz:f ()) in
  check "faster clock, more cycles" true (at 3.0 > at 2.0)

let test_sensor_inverse () =
  let n = Sensor.sensors_for ~wcdl:10 ~clock_ghz:2.5 () in
  check "inverse achieves target" true
    (Sensor.wcdl (Sensor.create ~num_sensors:n ~clock_ghz:2.5 ()) <= 10);
  check "area overhead about 1% at 300" true
    (abs_float (Sensor.area_overhead_percent (Sensor.create ~num_sensors:300 ~clock_ghz:2.5 ()) -. 1.0) < 0.01)

let test_sensor_round_trip () =
  (* sensors_for must be a sound inverse of wcdl at every paper clock
     rate: deploying the count it returns achieves (at most) the target
     latency, for every target in 1..50. *)
  List.iter
    (fun clock_ghz ->
      for target = 1 to 50 do
        let n = Sensor.sensors_for ~wcdl:target ~clock_ghz () in
        let achieved = Sensor.wcdl (Sensor.create ~num_sensors:n ~clock_ghz ()) in
        check
          (Printf.sprintf "wcdl %d @%.1fGHz achievable with %d sensors" target
             clock_ghz n)
          true (achieved <= target)
      done)
    [ 2.0; 2.5; 3.0 ]

let prop_sensor_latency_in_range =
  QCheck.Test.make ~name:"detection latency sample in [1,wcdl]" ~count:200
    QCheck.(pair (int_range 10 300) small_nat)
    (fun (n, seed) ->
      let s = Sensor.create ~num_sensors:n ~clock_ghz:2.5 () in
      let d = Sensor.sample_detection_latency s ~seed in
      d >= 1 && d <= Sensor.wcdl s)

(* ------------------------------------------------------------------ *)
(* Store buffer *)

let test_sb_alloc_release () =
  let sb = Store_buffer.create 2 in
  check "empty not full" false (Store_buffer.is_full sb);
  Store_buffer.alloc sb ~addr:8 ~region:0 ~is_ckpt:false ~release_at:None;
  Store_buffer.alloc sb ~addr:16 ~region:0 ~is_ckpt:true ~release_at:None;
  check "now full" true (Store_buffer.is_full sb);
  check "contains addr" true (Store_buffer.contains_addr sb 8);
  check "not contains" false (Store_buffer.contains_addr sb 24);
  Alcotest.check_raises "overflow" (Invalid_argument "Store_buffer.alloc: buffer full")
    (fun () -> Store_buffer.alloc sb ~addr:24 ~region:1 ~is_ckpt:false ~release_at:None);
  let next = Store_buffer.assign_releases sb ~region:0 ~start:100 in
  check_int "drain occupies consecutive cycles" 102 next;
  let released = Store_buffer.release_up_to sb 102 in
  Alcotest.(check (list (pair int bool))) "released in order" [ (8, false); (16, true) ]
    (List.map
       (fun (r : Store_buffer.released) -> (r.Store_buffer.addr, r.Store_buffer.is_ckpt))
       released);
  Alcotest.(check (list int)) "stamped with their drain cycles" [ 100; 101 ]
    (List.map (fun (r : Store_buffer.released) -> r.Store_buffer.at) released);
  check_int "empty after release" 0 (Store_buffer.occupancy sb)

let test_sb_partial_release () =
  let sb = Store_buffer.create 4 in
  Store_buffer.alloc sb ~addr:8 ~region:0 ~is_ckpt:false ~release_at:(Some 5);
  Store_buffer.alloc sb ~addr:16 ~region:1 ~is_ckpt:false ~release_at:(Some 9);
  check_int "only first released" 1 (List.length (Store_buffer.release_up_to sb 7));
  Alcotest.(check (option int)) "earliest remaining" (Some 9) (Store_buffer.earliest_release sb)

let test_sb_unreleasable_detection () =
  let sb = Store_buffer.create 2 in
  Store_buffer.alloc sb ~addr:8 ~region:7 ~is_ckpt:false ~release_at:None;
  Store_buffer.alloc sb ~addr:16 ~region:7 ~is_ckpt:false ~release_at:None;
  check "deadlock detected" true (Store_buffer.all_unreleasable sb ~current_region:7);
  check "not deadlock for other region" false
    (Store_buffer.all_unreleasable sb ~current_region:8);
  (match Store_buffer.force_release_oldest sb with
  | Some (8, false) -> ()
  | _ -> Alcotest.fail "force release should pop oldest");
  check_int "one left" 1 (Store_buffer.occupancy sb)

(* A list-based store buffer as a reference model for the array-backed
   one: simple enough to be obviously right, too slow to simulate with. *)
module Ref_sb = struct
  type entry = { addr : int; region : int; is_ckpt : bool; mutable release_at : int option }

  type t = {
    size : int;
    mutable entries : entry list; (* oldest first *)
    mutable samples : int;
    mutable total : int;
  }

  let create size = { size; entries = []; samples = 0; total = 0 }
  let occupancy t = List.length t.entries
  let is_full t = occupancy t >= t.size

  let sample t =
    t.samples <- t.samples + 1;
    t.total <- t.total + occupancy t

  let mean_occupancy t =
    if t.samples = 0 then 0.0 else float_of_int t.total /. float_of_int t.samples

  let alloc t ~addr ~region ~is_ckpt ~release_at =
    if is_full t then invalid_arg "Store_buffer.alloc: buffer full";
    t.entries <- t.entries @ [ { addr; region; is_ckpt; release_at } ]

  let contains_addr t addr = List.exists (fun e -> e.addr = addr) t.entries

  let assign_releases t ~region ~start =
    let next = ref start in
    List.iter
      (fun e ->
        if e.region = region && e.release_at = None then begin
          e.release_at <- Some !next;
          incr next
        end)
      t.entries;
    !next

  let release_up_to t cycle =
    let released, kept =
      List.partition
        (fun e -> match e.release_at with Some r -> r <= cycle | None -> false)
        t.entries
    in
    t.entries <- kept;
    List.map
      (fun e -> (e.addr, e.is_ckpt, e.region, Option.value e.release_at ~default:cycle))
      released

  let earliest_release t =
    List.fold_left
      (fun acc e ->
        match (e.release_at, acc) with
        | Some r, Some a -> Some (min r a)
        | Some r, None -> Some r
        | None, a -> a)
      None t.entries

  let all_unreleasable t ~current_region =
    t.entries <> []
    && List.for_all (fun e -> e.release_at = None && e.region = current_region) t.entries

  let force_release_oldest t =
    match t.entries with
    | [] -> None
    | e :: rest ->
      t.entries <- rest;
      Some (e.addr, e.is_ckpt)
end

let test_sb_matches_reference () =
  (* Seeded random operation sequences drive the store buffer and the
     reference side by side; every result and the occupancy statistics
     must agree after every operation. Small address and region spaces
     make CAM hits, shared regions and partial releases common. *)
  for seed = 0 to 299 do
    let rng = Random.State.make [| seed |] in
    let int n = Random.State.int rng n in
    let size = 1 + int 8 in
    let sb = Store_buffer.create size and rf = Ref_sb.create size in
    let cycle = ref 0 in
    let fail op = Alcotest.failf "seed %d: %s disagrees with the reference" seed op in
    for _ = 1 to 200 do
      (match int 8 with
      | 0 | 1 ->
        let addr = 8 * int 6 and region = int 4 and is_ckpt = int 2 = 0 in
        let release_at = if int 3 = 0 then Some (!cycle + int 20) else None in
        let raised f =
          try f (); false with Invalid_argument _ -> true
        in
        if
          raised (fun () -> Store_buffer.alloc sb ~addr ~region ~is_ckpt ~release_at)
          <> raised (fun () -> Ref_sb.alloc rf ~addr ~region ~is_ckpt ~release_at)
        then fail "alloc"
      | 2 ->
        let region = int 4 and start = !cycle + int 10 in
        if
          Store_buffer.assign_releases sb ~region ~start
          <> Ref_sb.assign_releases rf ~region ~start
        then fail "assign_releases"
      | 3 ->
        cycle := !cycle + int 8;
        let got =
          List.map
            (fun (r : Store_buffer.released) ->
              Store_buffer.(r.addr, r.is_ckpt, r.region, r.at))
            (Store_buffer.release_up_to sb !cycle)
        in
        if got <> Ref_sb.release_up_to rf !cycle then fail "release_up_to"
      | 4 ->
        if Store_buffer.earliest_release sb <> Ref_sb.earliest_release rf then
          fail "earliest_release"
      | 5 ->
        let addr = 8 * int 6 in
        if Store_buffer.contains_addr sb addr <> Ref_sb.contains_addr rf addr then
          fail "contains_addr"
      | 6 ->
        let current_region = int 4 in
        if
          Store_buffer.all_unreleasable sb ~current_region
          <> Ref_sb.all_unreleasable rf ~current_region
        then fail "all_unreleasable"
      | _ ->
        if Store_buffer.force_release_oldest sb <> Ref_sb.force_release_oldest rf then
          fail "force_release_oldest");
      Store_buffer.sample sb;
      Ref_sb.sample rf;
      if
        Store_buffer.occupancy sb <> Ref_sb.occupancy rf
        || Store_buffer.is_full sb <> Ref_sb.is_full rf
        || Store_buffer.mean_occupancy sb <> Ref_sb.mean_occupancy rf
      then fail "occupancy";
      (* The kept earliest release time, which the timing models gate
         [settle] on, against a scan of the reference. *)
      if Store_buffer.earliest_release sb <> Ref_sb.earliest_release rf then
        fail "kept earliest_release"
    done
  done

(* ------------------------------------------------------------------ *)
(* RBB *)

let test_rbb_lifecycle () =
  let rbb = Rbb.create 2 in
  check_int "no open region" (-1) (Rbb.current_seq rbb);
  let r0 = Rbb.open_region rbb ~static_id:5 in
  check_int "seq 0" 0 r0.Rbb.seq;
  check_int "current" 0 (Rbb.current_seq rbb);
  Alcotest.check_raises "double open" (Invalid_argument "Rbb.open_region: a region is already open")
    (fun () -> ignore (Rbb.open_region rbb ~static_id:6));
  let r0' = Rbb.close_region rbb ~end_cycle:10 ~wcdl:10 in
  Alcotest.(check (option int)) "verify time" (Some 20) r0'.Rbb.verify_at;
  ignore (Rbb.open_region rbb ~static_id:6);
  check "full at capacity" true (Rbb.is_full rbb);
  Alcotest.(check (option int)) "next verify" (Some 20) (Rbb.next_verify_time rbb);
  check_int "nothing verified early" 0 (List.length (Rbb.pop_verified rbb ~cycle:19));
  let vs = Rbb.pop_verified rbb ~cycle:20 in
  check_int "one verified" 1 (List.length vs);
  check_int "verified region's static id" 5 (List.hd vs).Rbb.static_id;
  check "not full anymore" false (Rbb.is_full rbb)

let test_rbb_in_order_verification () =
  let rbb = Rbb.create 4 in
  ignore (Rbb.open_region rbb ~static_id:0);
  ignore (Rbb.close_region rbb ~end_cycle:5 ~wcdl:10);
  ignore (Rbb.open_region rbb ~static_id:1);
  ignore (Rbb.close_region rbb ~end_cycle:8 ~wcdl:10);
  let vs = Rbb.pop_verified rbb ~cycle:30 in
  Alcotest.(check (list int)) "verified in order" [ 0; 1 ]
    (List.map (fun (r : Rbb.region) -> r.Rbb.seq) vs)

(* ------------------------------------------------------------------ *)
(* CLQ *)

let test_clq_ideal_exact_matching () =
  let clq = Clq.create Clq.Ideal in
  ignore (Clq.record_load clq ~region:0 100);
  ignore (Clq.record_load clq ~region:0 300);
  check "exact conflict" false (Clq.war_free clq ~region:0 100);
  check "inside range but no match" true (Clq.war_free clq ~region:0 200);
  check "outside range" true (Clq.war_free clq ~region:0 400)

let test_clq_compact_range_checking () =
  let clq = Clq.create (Clq.Compact 2) in
  ignore (Clq.record_load clq ~region:0 100);
  ignore (Clq.record_load clq ~region:0 300);
  check "exact conflict" false (Clq.war_free clq ~region:0 100);
  check "false positive inside range" false (Clq.war_free clq ~region:0 200);
  check "outside range ok" true (Clq.war_free clq ~region:0 400)

let test_clq_region_isolation () =
  let clq = Clq.create (Clq.Compact 2) in
  ignore (Clq.record_load clq ~region:0 100);
  (* A different region's store is not checked against region 0's loads. *)
  check "cross region free" true (Clq.war_free clq ~region:1 100)

let test_clq_overflow_automaton () =
  let clq = Clq.create (Clq.Compact 1) in
  check "no overflow on first region" false (Clq.record_load clq ~region:0 100);
  check "enabled" true (Clq.enabled clq);
  (* A second region needs an entry: overflow disables fast release. *)
  check "overflow reported" true (Clq.record_load clq ~region:1 200);
  check "disabled after overflow" false (Clq.enabled clq);
  check "no-op while disabled" false (Clq.record_load clq ~region:1 300);
  check_int "overflow counted" 1 (Clq.overflows clq);
  check "war_free false while disabled" false (Clq.war_free clq ~region:1 999);
  (* Fig 13: re-enabled at a boundary once at most one region is pending. *)
  Clq.maybe_enable clq ~unverified_regions:3;
  check "still disabled" false (Clq.enabled clq);
  Clq.maybe_enable clq ~unverified_regions:1;
  check "re-enabled" true (Clq.enabled clq)

let test_clq_verification_clears () =
  let clq = Clq.create (Clq.Compact 2) in
  ignore (Clq.record_load clq ~region:0 100);
  ignore (Clq.record_load clq ~region:1 200);
  check_int "two entries" 2 (Clq.entries_in_use clq);
  Clq.on_region_verified clq ~region:0;
  check_int "one after verify" 1 (Clq.entries_in_use clq);
  Clq.sample clq;
  check_int "max populated" 1 (Clq.max_populated clq)

let prop_clq_compact_conservative =
  (* The compact design never calls WAR-free a store the ideal design
     would quarantine: range checking over-approximates exact matching. *)
  QCheck.Test.make ~name:"compact CLQ is conservative wrt ideal" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (int_range 0 40)) (int_range 0 40))
    (fun (loads, store) ->
      let ideal = Clq.create Clq.Ideal and compact = Clq.create (Clq.Compact 2) in
      List.iter
        (fun a ->
          ignore (Clq.record_load ideal ~region:0 (a * 8));
          ignore (Clq.record_load compact ~region:0 (a * 8)))
        loads;
      let sa = store * 8 in
      (* compact WAR-free => ideal WAR-free *)
      (not (Clq.war_free compact ~region:0 sa)) || Clq.war_free ideal ~region:0 sa)

(* ------------------------------------------------------------------ *)
(* Coloring *)

let test_coloring_assign_and_verify () =
  let col = Coloring.create ~nregs:4 () in
  Alcotest.(check (option int)) "nothing verified" None (Coloring.verified_color col ~reg:1);
  (match Coloring.try_assign col ~reg:1 ~region:0 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "first color should be 0");
  Alcotest.(check (option int)) "used color" (Some 0) (Coloring.used_color col ~reg:1 ~region:0);
  Coloring.on_region_verified col ~region:0;
  Alcotest.(check (option int)) "verified after region" (Some 0)
    (Coloring.verified_color col ~reg:1);
  (* Next assign takes a different color; verification recycles the old. *)
  (match Coloring.try_assign col ~reg:1 ~region:1 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "second color should be 1");
  Coloring.on_region_verified col ~region:1;
  Alcotest.(check (option int)) "verified moves" (Some 1) (Coloring.verified_color col ~reg:1);
  (match Coloring.try_assign col ~reg:1 ~region:2 with
  | Some 0 -> () (* color 0 was recycled *)
  | _ -> Alcotest.fail "recycled color expected")

let test_coloring_pool_exhaustion () =
  let col = Coloring.create ~nregs:2 () in
  (* 4 un-verified checkpoints exhaust the pool; the 5th falls back. *)
  for region = 0 to 3 do
    match Coloring.try_assign col ~reg:1 ~region with
    | Some _ -> ()
    | None -> Alcotest.fail "pool should not be exhausted yet"
  done;
  (match Coloring.try_assign col ~reg:1 ~region:4 with
  | None -> ()
  | Some _ -> Alcotest.fail "pool should be exhausted");
  check_int "fallbacks counted" 1 (Coloring.fallbacks col);
  check_int "fast assigns counted" 4 (Coloring.fast_assigned col)

let test_coloring_discard () =
  let col = Coloring.create ~nregs:2 () in
  ignore (Coloring.try_assign col ~reg:1 ~region:0);
  ignore (Coloring.try_assign col ~reg:1 ~region:1);
  Coloring.discard_unverified col ~regions:[ 0; 1 ];
  (* All colors free again. *)
  (match Coloring.try_assign col ~reg:1 ~region:2 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "colors should be free after discard")

let test_coloring_force_verified () =
  let col = Coloring.create ~nregs:2 () in
  ignore (Coloring.try_assign col ~reg:1 ~region:0);
  Coloring.on_region_verified col ~region:0;
  (* A fallback checkpoint drains into color 1: it becomes Verified and
     the old verified color 0 returns to the pool. *)
  Coloring.force_verified col ~reg:1 ~color:1;
  Alcotest.(check (option int)) "verified now 1" (Some 1) (Coloring.verified_color col ~reg:1);
  (match Coloring.try_assign col ~reg:1 ~region:5 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "old verified color should be reusable")

let prop_coloring_single_verified =
  (* Under random assign/verify/discard sequences, a register never has
     two verified colors. *)
  QCheck.Test.make ~name:"coloring: at most one verified color" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 2))
    (fun ops ->
      let col = Coloring.create ~nregs:1 () in
      let region = ref 0 in
      let pending = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            (match Coloring.try_assign col ~reg:0 ~region:!region with
            | Some _ -> pending := !region :: !pending
            | None -> ());
            incr region
          | 1 -> (
            match List.rev !pending with
            | oldest :: rest ->
              Coloring.on_region_verified col ~region:oldest;
              pending := List.rev rest
            | [] -> ())
          | _ ->
            Coloring.discard_unverified col ~regions:!pending;
            pending := [])
        ops;
      (* Count verified colors via the public API: verified_color returns
         the first; force a scan by checking try_assign invariants. *)
      match Coloring.verified_color col ~reg:0 with
      | None -> true
      | Some c ->
        (* No other color should read back as verified: temporarily
           invalidate and confirm none remains. *)
        Coloring.invalidate_verified col ~reg:0;
        ignore c;
        Coloring.verified_color col ~reg:0 = None)

(* A region that colors one register twice. Its colorings take effect in
   assignment order, so the newest checkpoint ends verified — the one
   [Recovery.verify_region]'s last-checkpoint-wins replay points at — and
   the older color goes back to the pool instead of staying held by a
   region that has already verified. *)
let test_coloring_repeated_in_region () =
  let col = Coloring.create ~colors:4 ~nregs:2 () in
  let assign region =
    match Coloring.try_assign col ~reg:1 ~region with
    | Some c -> c
    | None -> Alcotest.failf "region %d: pool exhausted" region
  in
  check_int "region 0 takes color 0" 0 (assign 0);
  check_int "region 1 takes color 1" 1 (assign 1);
  check_int "region 2 takes color 2" 2 (assign 2);
  Coloring.on_region_verified col ~region:0;
  Coloring.on_region_verified col ~region:1;
  (* Region 2 checkpoints the register again: color 0 is free again, so
     the newer checkpoint takes the lower index. *)
  check_int "region 2 again takes color 0" 0 (assign 2);
  Coloring.on_region_verified col ~region:2;
  Alcotest.(check (option int)) "the newest checkpoint is verified" (Some 0)
    (Coloring.verified_color col ~reg:1);
  Alcotest.(check (option int)) "region 2 holds no color" None
    (Coloring.used_color col ~reg:1 ~region:2);
  (* Every color but the verified one is free: three fast assignments. *)
  List.iter
    (fun expected -> check_int "freed color reused" expected (assign 3))
    [ 1; 2; 3 ];
  check "then the pool is exhausted" true (Coloring.try_assign col ~reg:1 ~region:3 = None)

(* The flat-cell, logged coloring against the cell-scanning one it
   replaced (test/coloring_ref.ml): seeded random operation sequences over
   a few registers and pool sizes. Regions open in order and verify oldest
   first (as in both executors) or out of order; discards, fallback
   drains, invalidations and deep copies interleave. No register is
   colored twice in one region here: the rule for that case changed (a
   region's colorings now take effect in assignment order), and
   [test_coloring_repeated_in_region] covers it. After every operation
   every query must answer as the reference's. *)
let test_coloring_matches_reference () =
  for seed = 0 to 299 do
    let rng = Random.State.make [| seed |] in
    let int n = Random.State.int rng n in
    let nregs = 1 + int 5 and colors = 1 + int 4 in
    let col = ref (Coloring.create ~colors ~nregs ())
    and rf = ref (Coloring_ref.create ~colors ~nregs ()) in
    let current = ref 0 and pending = ref [] (* oldest first *) in
    let colored = Hashtbl.create 16 (* (reg, region) pairs colored *) in
    let fail step op =
      Alcotest.failf "seed %d, step %d: %s disagrees with the reference" seed step op
    in
    let reg () = int (nregs + 2) - 1 (* includes the out-of-range -1 and nregs *) in
    for step = 1 to 300 do
      (match int 10 with
      | 0 | 1 | 2 ->
        let reg = reg () in
        if not (Hashtbl.mem colored (reg, !current)) then begin
          Hashtbl.replace colored (reg, !current) ();
          if
            Coloring.try_assign !col ~reg ~region:!current
            <> Coloring_ref.try_assign !rf ~reg ~region:!current
          then fail step "try_assign"
        end
      | 3 ->
        pending := !pending @ [ !current ];
        incr current
      | 4 -> (
        match !pending with
        | oldest :: rest ->
          Coloring.on_region_verified !col ~region:oldest;
          Coloring_ref.on_region_verified !rf ~region:oldest;
          pending := rest
        | [] -> ())
      | 5 -> (
        match !pending with
        | [] -> ()
        | l ->
          let r = List.nth l (int (List.length l)) in
          Coloring.on_region_verified !col ~region:r;
          Coloring_ref.on_region_verified !rf ~region:r;
          pending := List.filter (( <> ) r) l)
      | 6 ->
        let regions = List.filter (fun _ -> int 2 = 0) (!current :: !pending) in
        Coloring.discard_unverified !col ~regions;
        Coloring_ref.discard_unverified !rf ~regions;
        pending := List.filter (fun r -> not (List.mem r regions)) !pending
      | 7 ->
        let reg = reg () and color = int colors in
        Coloring.force_verified !col ~reg ~color;
        Coloring_ref.force_verified !rf ~reg ~color
      | 8 ->
        let reg = reg () in
        Coloring.invalidate_verified !col ~reg;
        Coloring_ref.invalidate_verified !rf ~reg
      | _ ->
        (* Continue on deep copies while the originals take one more
           assignment each; the copies must not see it. *)
        let c = Coloring.copy !col and r = Coloring_ref.copy !rf in
        ignore (Coloring.try_assign !col ~reg:0 ~region:(-5));
        ignore (Coloring_ref.try_assign !rf ~reg:0 ~region:(-5));
        col := c;
        rf := r);
      if
        Coloring.fast_assigned !col <> Coloring_ref.fast_assigned !rf
        || Coloring.fallbacks !col <> Coloring_ref.fallbacks !rf
      then fail step "counters";
      for reg = -1 to nregs do
        if Coloring.verified_color !col ~reg <> Coloring_ref.verified_color !rf ~reg then
          fail step "verified_color";
        if Coloring.free_color !col ~reg <> Coloring_ref.free_color !rf ~reg then
          fail step "free_color";
        for region = -1 to !current do
          if
            Coloring.used_color !col ~reg ~region
            <> Coloring_ref.used_color !rf ~reg ~region
          then fail step "used_color"
        done
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Timing model on hand-built traces *)

let alu ?(dst = Some 1) ?(srcs = []) () = Trace.Alu { dst; srcs }

let simulate ?(machine = Machine.baseline) events =
  Timing.simulate machine { Trace.events = Array.of_list events; complete = true }

let test_timing_dual_issue () =
  (* 8 independent ALU ops on a 2-wide machine take ~4 cycles. *)
  let stats = simulate (List.init 8 (fun i -> alu ~dst:(Some (i + 1)) ())) in
  check "ipc close to 2" true (Sim_stats.ipc stats > 1.5);
  check_int "instructions" 8 stats.Sim_stats.instructions

let test_timing_dependent_chain () =
  (* A dependent chain serializes: one per cycle. *)
  let events =
    List.init 8 (fun i ->
        Trace.Alu { dst = Some ((i mod 2) + 1); srcs = [ ((i + 1) mod 2) + 1 ] })
  in
  let stats = simulate events in
  check "chain serializes" true (stats.Sim_stats.cycles >= 8)

let test_timing_load_latency () =
  (* A dependent use of a cold load waits for the full memory path. *)
  let cfg = Mem_hierarchy.default_config in
  let events =
    [ Trace.Load { dst = 1; srcs = []; addr = 0x5000; kind = Turnpike_ir.Instr.App_mem };
      Trace.Alu { dst = Some 2; srcs = [ 1 ] } ]
  in
  let stats = simulate events in
  let full = cfg.Mem_hierarchy.l1_hit + cfg.l2_hit + cfg.mem_latency in
  check "miss latency exposed" true (stats.Sim_stats.cycles >= full)

let test_timing_branch_prediction () =
  (* The bimodal predictor starts weakly taken: a not-taken conditional
     branch mispredicts (one redirect bubble) while a taken one doesn't. *)
  let br taken = Trace.Branch { srcs = [ 1 ]; taken; pc = 7 } in
  let mispredicted = simulate [ br false; alu () ] in
  let predicted = simulate [ br true; alu () ] in
  check "mispredict costs a bubble" true
    (mispredicted.Sim_stats.cycles > predicted.Sim_stats.cycles);
  check_int "mispredict counted" 1 mispredicted.Sim_stats.branch_mispredicts;
  check_int "predicted not counted" 0 predicted.Sim_stats.branch_mispredicts;
  (* Training: after two not-taken outcomes the counter flips and further
     not-taken branches are free. *)
  let trained = simulate [ br false; br false; br false; br false; alu () ] in
  check "training reduces mispredicts" true (trained.Sim_stats.branch_mispredicts <= 2)

let test_timing_sb_forwarding () =
  (* A load to an address quarantined in the SB forwards at L1 speed even
     when the line would miss in cache. *)
  let machine = Machine.turnstile ~wcdl:50 () in
  let addr = 0x9000 in
  let events =
    [ Trace.Boundary { region = 0 };
      Trace.Store { srcs = []; addr; cls = Trace.Regular_app };
      Trace.Load { dst = 1; srcs = []; addr; kind = Turnpike_ir.Instr.App_mem };
      Trace.Alu { dst = Some 2; srcs = [ 1 ] } ]
  in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check_int "forwarded" 1 stats.Sim_stats.sb_forwards;
  let cfg = machine.Machine.mem in
  check "no full miss latency on the use" true
    (stats.Sim_stats.cycles < cfg.Mem_hierarchy.mem_latency)

let test_timing_store_ports () =
  (* One load and one store can issue the same cycle; two stores cannot. *)
  let two_stores =
    simulate
      [ Trace.Store { srcs = []; addr = 8; cls = Trace.Regular_app };
        Trace.Store { srcs = []; addr = 16; cls = Trace.Regular_app } ]
  in
  let load_store =
    simulate
      [ Trace.Load { dst = 1; srcs = []; addr = 8; kind = Turnpike_ir.Instr.App_mem };
        Trace.Store { srcs = []; addr = 16; cls = Trace.Regular_app } ]
  in
  check "two stores serialized" true
    (two_stores.Sim_stats.cycles > load_store.Sim_stats.cycles)

let test_timing_verification_quarantine () =
  (* Under verification, stores quarantine until region end + WCDL: with a
     4-entry SB, a 5th store in the same unfinished window stalls. *)
  let machine = Machine.turnstile ~wcdl:30 () in
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let boundary i = Trace.Boundary { region = i } in
  let events =
    [ boundary 0; store 1; store 2; boundary 1; store 3; store 4; boundary 2;
      store 5 ]
  in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check "sb-full stall occurred" true (stats.Sim_stats.sb_full_stall_cycles > 0);
  check "store 5 waited about a WCDL" true (stats.Sim_stats.cycles >= 30)

let test_timing_baseline_no_quarantine () =
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let stats = simulate (List.init 8 (fun i -> store (i + 1))) in
  check "baseline drains freely" true (stats.Sim_stats.cycles < 20);
  check_int "no quarantine in baseline" 0 stats.Sim_stats.quarantined

let test_timing_war_free_fast_release () =
  (* WAR-free stores bypass the SB under Turnpike: no sb-full stalls even
     with many stores per region window. *)
  let machine = Machine.turnpike ~wcdl:30 () in
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events =
    Trace.Boundary { region = 0 }
    :: List.concat
         (List.init 6 (fun i ->
              [ store (i + 1); Trace.Boundary { region = i + 1 } ]))
  in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check_int "all fast released" 6 stats.Sim_stats.war_free_released;
  check_int "no stalls" 0 stats.Sim_stats.sb_full_stall_cycles

let test_timing_war_dependence_quarantines () =
  (* A store to an address the region already loaded must quarantine. *)
  let machine = Machine.turnpike ~wcdl:10 () in
  let events =
    [ Trace.Boundary { region = 0 };
      Trace.Load { dst = 1; srcs = []; addr = 64; kind = Turnpike_ir.Instr.App_mem };
      Trace.Store { srcs = [ 1 ]; addr = 64; cls = Trace.Regular_app } ]
  in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check_int "quarantined" 1 stats.Sim_stats.quarantined;
  check_int "not fast released" 0 stats.Sim_stats.war_free_released

let test_timing_ckpt_coloring () =
  let machine = Machine.turnpike ~wcdl:10 () in
  let events =
    [ Trace.Boundary { region = 0 }; Trace.Ckpt { src = 3 };
      Trace.Boundary { region = 1 }; Trace.Ckpt { src = 3 } ]
  in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check_int "both colored" 2 stats.Sim_stats.colored_released;
  check_int "none quarantined" 0 stats.Sim_stats.quarantined

let test_timing_ckpt_without_coloring_quarantines () =
  let machine = Machine.turnstile ~wcdl:10 () in
  let events = [ Trace.Boundary { region = 0 }; Trace.Ckpt { src = 3 } ] in
  let stats = Timing.simulate machine { Trace.events = Array.of_list events; complete = true } in
  check_int "quarantined" 1 stats.Sim_stats.quarantined;
  check_int "counted as ckpt quarantine" 1 stats.Sim_stats.ckpt_quarantined

let test_timing_strict_partitioning_raises () =
  let machine = { (Machine.turnstile ~wcdl:10 ()) with Machine.strict_partitioning = true } in
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events = Trace.Boundary { region = 0 } :: List.init 5 (fun i -> store i) in
  check "raises on overfull region" true
    (try
       ignore (Timing.simulate machine { Trace.events = Array.of_list events; complete = true });
       false
     with Timing.Partitioning_violation _ -> true)

(* The non-strict escape hatch: a region that issues more stores than the
   SB holds force-releases its oldest entry instead of raising. Region 1
   first waits for region 0's entries to verify and drain, then overflows
   the SB three times; the last store waits for region 1 to verify. The
   scale-1 golden and the sweep never take this path, so these counts pin
   the forced release, which the settle gate must see like any other. *)
let test_timing_nonstrict_partitioning () =
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events =
    [ Trace.Boundary { region = 0 }; store 1; store 2; Trace.Boundary { region = 1 } ]
    @ List.init 7 (fun i -> store (10 + i))
    @ [ Trace.Boundary { region = 2 }; store 30; alu () ]
  in
  let trace = { Trace.events = Array.of_list events; complete = true } in
  List.iter
    (fun (wcdl, cycles, stalls) ->
      let s = Timing.simulate (Machine.turnstile ~wcdl ()) trace in
      let what = Printf.sprintf "WCDL %d: " wcdl in
      check_int (what ^ "partition violations") 3 s.Sim_stats.partition_violations;
      check_int (what ^ "cycles") cycles s.Sim_stats.cycles;
      check_int (what ^ "sb-full stall cycles") stalls s.Sim_stats.sb_full_stall_cycles;
      check_int (what ^ "quarantined") 10 s.Sim_stats.quarantined)
    [ (10, 26, 19); (30, 66, 59) ]

let test_timing_wcdl_monotonic () =
  (* More WCDL never makes a verified run faster. *)
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events =
    Trace.Boundary { region = 0 }
    :: List.concat (List.init 10 (fun i -> [ store i; store (100 + i); Trace.Boundary { region = i + 1 } ]))
  in
  let trace = { Trace.events = Array.of_list events; complete = true } in
  let cycles w = (Timing.simulate (Machine.turnstile ~wcdl:w ()) trace).Sim_stats.cycles in
  check "monotonic in wcdl" true (cycles 10 <= cycles 30 && cycles 30 <= cycles 50)

(* ------------------------------------------------------------------ *)
(* Out-of-order comparison core *)

let ooo_simulate ?(cfg = Ooo_timing.default_config) events =
  Ooo_timing.simulate cfg { Trace.events = Array.of_list events; complete = true }

let test_ooo_hides_independent_latency () =
  (* A long-latency load overlaps independent ALU work out of order but
     serializes on the in-order core. *)
  let events =
    Trace.Load { dst = 1; srcs = []; addr = 0x7000; kind = Turnpike_ir.Instr.App_mem }
    :: List.init 20 (fun i -> alu ~dst:(Some (i + 2)) ())
    @ [ Trace.Alu { dst = Some 30; srcs = [ 1 ] } ]
  in
  let ooo = ooo_simulate events in
  (* The dependent consumer still waits for the load. *)
  let cfg = Mem_hierarchy.default_config in
  let full = cfg.Mem_hierarchy.l1_hit + cfg.l2_hit + cfg.mem_latency in
  check "dependent waits" true (ooo.Sim_stats.cycles >= full);
  check "independents overlapped" true (ooo.Sim_stats.cycles <= full + 8)

let test_ooo_window_bounds_overlap () =
  (* With a tiny reorder window the same code cannot overlap past the
     window edge. *)
  let mk rob =
    let cfg = { Ooo_timing.default_config with Ooo_timing.rob_size = rob } in
    let events =
      Trace.Load { dst = 1; srcs = []; addr = 0x7040; kind = Turnpike_ir.Instr.App_mem }
      :: List.init 30 (fun i -> alu ~dst:(Some ((i mod 20) + 2)) ())
    in
    (ooo_simulate ~cfg events).Sim_stats.cycles
  in
  check "small window is slower" true (mk 2 > mk 64)

let test_ooo_turnstile_cheap () =
  (* The motivating claim: quarantining stores behind a 40-entry SB barely
     costs anything out of order. *)
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events =
    Trace.Boundary { region = 0 }
    :: List.concat
         (List.init 12 (fun i ->
              [ store i; alu ~dst:(Some 2) (); alu ~dst:(Some 3) ();
                Trace.Boundary { region = i + 1 } ]))
  in
  let base = ooo_simulate events in
  let ts = ooo_simulate ~cfg:(Ooo_timing.turnstile_config ~wcdl:30 ()) events in
  check "verification nearly free on OoO" true
    (float_of_int ts.Sim_stats.cycles /. float_of_int base.Sim_stats.cycles < 1.2);
  check "stores were quarantined" true (ts.Sim_stats.quarantined = 12)

let test_ooo_small_sb_backpressures () =
  (* Shrink the OoO core's SB to 4: the same quarantine now stalls. *)
  let store i = Trace.Store { srcs = []; addr = 8 * i; cls = Trace.Regular_app } in
  let events =
    Trace.Boundary { region = 0 }
    :: List.concat
         (List.init 12 (fun i -> [ store i; Trace.Boundary { region = i + 1 } ]))
  in
  let big = ooo_simulate ~cfg:(Ooo_timing.turnstile_config ~wcdl:50 ()) events in
  let small =
    ooo_simulate
      ~cfg:{ (Ooo_timing.turnstile_config ~wcdl:50 ()) with Ooo_timing.sb_size = 4 }
      events
  in
  check "4-entry SB stalls even out of order" true
    (small.Sim_stats.cycles > big.Sim_stats.cycles)

(* ------------------------------------------------------------------ *)
(* Allocation budget: with telemetry off, both timing models replay a
   trace allocating at most a few words per simulated instruction (the
   structures they build once, and a cell per verified region or drained
   store). A deterministic stand-in for "the simulator got faster" that
   host noise cannot move. *)

let test_sim_alloc_budget () =
  let module Run = Turnpike.Run in
  let module Scheme = Turnpike.Scheme in
  let params = { Run.default_params with Run.scale = 1 } in
  let budget = 10.0 in
  let words_per_instr simulate trace =
    let before = Gc.minor_words () in
    let stats = simulate trace in
    (Gc.minor_words () -. before) /. float_of_int (max 1 stats.Sim_stats.instructions)
  in
  List.iter
    (fun name ->
      let bench = List.hd (Turnpike_workloads.Suite.find_by_name name) in
      List.iter
        (fun (s : Scheme.t) ->
          let trace = (Run.compile_with params s bench).Run.trace in
          let machine = Scheme.machine s ~wcdl:10 ~sb_size:4 in
          let ooo =
            if machine.Machine.verification then Ooo_timing.turnstile_config ~wcdl:10 ()
            else Ooo_timing.default_config
          in
          List.iter
            (fun (model, w) ->
              check
                (Printf.sprintf "%s/%s %s: %.2f words per instruction" name
                   s.Scheme.name model w)
                true (w <= budget))
            [
              ("in-order", words_per_instr (Timing.simulate machine) trace);
              ("ooo", words_per_instr (Ooo_timing.simulate ooo) trace);
            ])
        [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ])
    [ "libquan"; "mcf"; "radix" ]

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_model_anchors () =
  let near a b = abs_float (a -. b) < 0.01 in
  let sb4 = Cost_model.store_buffer ~entries:4 in
  check "sb4 area" true (near sb4.Cost_model.area_um2 621.28);
  check "sb4 energy" true (near sb4.Cost_model.energy_pj 0.43099);
  let sb40 = Cost_model.store_buffer ~entries:40 in
  check "sb40 area" true (near sb40.Cost_model.area_um2 3132.50);
  let cmap = Cost_model.color_maps ~nregs:32 () in
  check "color maps area" true (near cmap.Cost_model.area_um2 36.651);
  let clq = Cost_model.clq ~entries:2 in
  check "clq area" true (near clq.Cost_model.area_um2 24.434)

let test_cost_model_bytes () =
  check_int "color map bytes (paper: 24B for 32 regs)" 24 (Cost_model.color_map_bytes ~nregs:32 ());
  check_int "clq bytes (paper: 16B for 2 entries)" 16 (Cost_model.clq_bytes ~entries:2)

let test_cost_model_ratios () =
  let rows = Cost_model.table1 () in
  check_int "seven rows" 7 (List.length rows);
  let find label = List.find (fun (r : Cost_model.table1_row) -> r.Cost_model.label = label) rows in
  let tp = find "Turnpike in total / 4-entry SB [%]" in
  check "turnpike ~9.8% of SB4 area" true (abs_float (tp.Cost_model.area_um2 -. 9.8) < 0.2);
  let sb40 = find "40-entry SB / 4-entry SB [%]" in
  check "40-entry SB ~504% area" true (abs_float (sb40.Cost_model.area_um2 -. 504.2) < 1.0)

let prop_cost_monotonic =
  QCheck.Test.make ~name:"cost grows with size" ~count:50
    QCheck.(pair (int_range 1 64) (int_range 1 64))
    (fun (a, b) ->
      let small = min a b and big = max a b in
      small = big
      || (Cost_model.cam ~entries:small).Cost_model.area_um2
         <= (Cost_model.cam ~entries:big).Cost_model.area_um2)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cache_model_equivalence; prop_sensor_latency_in_range;
      prop_clq_compact_conservative; prop_coloring_single_verified;
      prop_cost_monotonic ]

let tests =
  [
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache writeback", `Quick, test_cache_writeback);
    ("cache invalid size", `Quick, test_cache_invalid);
    ("cache matches record-per-line reference", `Quick, test_cache_matches_reference);
    ("hierarchy latencies", `Quick, test_hierarchy_latencies);
    ("hierarchy L2 hit", `Quick, test_hierarchy_l2_hit);
    ("sensor paper anchor", `Quick, test_sensor_anchor);
    ("sensor monotonicity", `Quick, test_sensor_monotonicity);
    ("sensor inverse/area", `Quick, test_sensor_inverse);
    ("sensor round trip wcdl<->sensors", `Quick, test_sensor_round_trip);
    ("store buffer alloc/release", `Quick, test_sb_alloc_release);
    ("store buffer partial release", `Quick, test_sb_partial_release);
    ("store buffer deadlock detection", `Quick, test_sb_unreleasable_detection);
    ("store buffer matches list reference", `Quick, test_sb_matches_reference);
    ("rbb lifecycle", `Quick, test_rbb_lifecycle);
    ("rbb in-order verification", `Quick, test_rbb_in_order_verification);
    ("clq ideal exact matching", `Quick, test_clq_ideal_exact_matching);
    ("clq compact range checking", `Quick, test_clq_compact_range_checking);
    ("clq region isolation", `Quick, test_clq_region_isolation);
    ("clq overflow automaton (Fig 13)", `Quick, test_clq_overflow_automaton);
    ("clq verification clears entries", `Quick, test_clq_verification_clears);
    ("coloring assign/verify/recycle", `Quick, test_coloring_assign_and_verify);
    ("coloring pool exhaustion", `Quick, test_coloring_pool_exhaustion);
    ("coloring discard on recovery", `Quick, test_coloring_discard);
    ("coloring fallback drain", `Quick, test_coloring_force_verified);
    ("coloring: a register colored twice in one region", `Quick,
      test_coloring_repeated_in_region);
    ("coloring matches cell-scanning reference", `Quick, test_coloring_matches_reference);
    ("timing dual issue", `Quick, test_timing_dual_issue);
    ("timing dependent chain", `Quick, test_timing_dependent_chain);
    ("timing load miss latency", `Quick, test_timing_load_latency);
    ("timing branch prediction", `Quick, test_timing_branch_prediction);
    ("timing SB store-to-load forwarding", `Quick, test_timing_sb_forwarding);
    ("timing load/store ports", `Quick, test_timing_store_ports);
    ("timing quarantine stalls (Fig 5)", `Quick, test_timing_verification_quarantine);
    ("timing baseline no quarantine", `Quick, test_timing_baseline_no_quarantine);
    ("timing WAR-free fast release", `Quick, test_timing_war_free_fast_release);
    ("timing WAR dependence quarantines", `Quick, test_timing_war_dependence_quarantines);
    ("timing checkpoint coloring", `Quick, test_timing_ckpt_coloring);
    ("timing turnstile ckpt quarantine", `Quick, test_timing_ckpt_without_coloring_quarantines);
    ("timing strict partitioning", `Quick, test_timing_strict_partitioning_raises);
    ("timing non-strict partitioning", `Quick, test_timing_nonstrict_partitioning);
    ("timing monotonic in WCDL", `Quick, test_timing_wcdl_monotonic);
    ("ooo hides independent latency", `Quick, test_ooo_hides_independent_latency);
    ("ooo window bounds overlap", `Quick, test_ooo_window_bounds_overlap);
    ("ooo turnstile nearly free", `Quick, test_ooo_turnstile_cheap);
    ("ooo small SB backpressures", `Quick, test_ooo_small_sb_backpressures);
    ("timing models allocation budget", `Quick, test_sim_alloc_budget);
    ("cost model paper anchors", `Quick, test_cost_model_anchors);
    ("cost model structure bytes", `Quick, test_cost_model_bytes);
    ("cost model table ratios", `Quick, test_cost_model_ratios);
  ]
  @ qcheck
