(* Tests for the telemetry subsystem: sink semantics (disabled = free,
   bounded capacity, deterministic merge), the cycle-level timeline
   (byte-identical at any --jobs count), Chrome trace-event export
   (round-trips through a real JSON parser), and the per-pass compiler
   spans (exactly one span per declared pass).

   The container has no JSON package, so the round-trip checks use the
   little recursive-descent parser below — strict enough to reject
   trailing garbage, unterminated strings and malformed escapes. *)

module Telemetry = Turnpike_telemetry
module Timeline = Turnpike.Timeline
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Minimal strict JSON parser. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
      else fail ("bad literal, wanted " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?' (* non-ASCII: placeholder *)
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | _ -> fail "unknown escape");
          incr pos;
          go ()
        | c -> Buffer.add_char b c; incr pos; go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do incr pos done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> String (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; List [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elems (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elems [])
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let str_member k j =
    match member k j with Some (String s) -> Some s | _ -> None

  let num_member k j = match member k j with Some (Num f) -> Some f | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Sink semantics. *)

let test_null_sink () =
  check "null sink is disabled" false (Telemetry.enabled Telemetry.null);
  Telemetry.counter Telemetry.null ~ts:0 "occupancy" [ ("sb", Telemetry.Int 3) ];
  Telemetry.instant Telemetry.null ~ts:1 "quarantine";
  Telemetry.complete Telemetry.null ~ts:2 ~dur:5 "span";
  Telemetry.span_finish Telemetry.null ~start:(Telemetry.span_start Telemetry.null)
    "wall";
  check_int "nothing stored" 0 (Telemetry.length Telemetry.null);
  check_int "nothing dropped" 0 (Telemetry.dropped Telemetry.null);
  check "no events" true (Telemetry.events Telemetry.null = [])

let test_sink_capacity_and_seq () =
  let s = Telemetry.create ~task:3 ~capacity:2 () in
  check "created sink is enabled" true (Telemetry.enabled s);
  check_int "task key" 3 (Telemetry.task s);
  for i = 0 to 4 do
    Telemetry.instant s ~ts:i "e"
  done;
  check_int "capacity bounds storage" 2 (Telemetry.length s);
  check_int "excess counted as dropped" 3 (Telemetry.dropped s);
  let seqs = List.map (fun (e : Telemetry.event) -> e.Telemetry.seq) (Telemetry.events s) in
  check "seq is the emission index" true (seqs = [ 0; 1 ]);
  check "all events carry the sink's task" true
    (List.for_all (fun (e : Telemetry.event) -> e.Telemetry.task = 3) (Telemetry.events s))

let test_merge_orders_by_task_seq () =
  let mk task names =
    let s = Telemetry.create ~task () in
    List.iter (fun n -> Telemetry.instant s ~ts:0 n) names;
    s
  in
  let s2 = mk 2 [ "c1"; "c2" ] in
  let s0 = mk 0 [ "a1" ] in
  let s1 = mk 1 [ "b1"; "b2" ] in
  (* merge order must not depend on the order sinks are passed in *)
  let keys evs =
    List.map (fun (e : Telemetry.event) -> (e.Telemetry.task, e.Telemetry.seq, e.Telemetry.name)) evs
  in
  let m1 = keys (Telemetry.merge [ s2; s0; s1 ]) in
  let m2 = keys (Telemetry.merge [ s0; s1; s2 ]) in
  check "merge independent of sink order" true (m1 = m2);
  check "sorted by (task, seq)" true
    (m1 = [ (0, 0, "a1"); (1, 0, "b1"); (1, 1, "b2"); (2, 0, "c1"); (2, 1, "c2") ])

let test_with_span_exception_safe () =
  let s = Telemetry.create () in
  (try Telemetry.with_span s "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  check_int "span emitted despite the exception" 1 (Telemetry.length s);
  let e = List.hd (Telemetry.events s) in
  check "span carries an error arg" true
    (List.mem_assoc "error" e.Telemetry.args)

let test_dropped_surfaced_in_exports () =
  let s = Telemetry.create ~task:0 ~capacity:2 () in
  for i = 0 to 4 do
    Telemetry.instant s ~ts:i "e"
  done;
  let events = Telemetry.merge [ s ] in
  let dropped = Telemetry.total_dropped [ s ] in
  check_int "total_dropped agrees" 3 dropped;
  let lines =
    String.split_on_char '\n' (Telemetry.Export.jsonl ~dropped events)
    |> List.filter (fun l -> l <> "")
  in
  check_int "meta line appended" (List.length events + 1) (List.length lines);
  let meta = Json.parse (List.nth lines (List.length lines - 1)) in
  check "jsonl meta line names telemetry" true
    (Json.str_member "meta" meta = Some "telemetry");
  check "jsonl meta line carries the count" true
    (Json.num_member "dropped" meta = Some 3.);
  let chrome = Json.parse (Telemetry.Export.chrome ~dropped events) in
  check "chrome otherData carries droppedEvents" true
    (match Json.member "otherData" chrome with
    | Some o -> Json.num_member "droppedEvents" o = Some 3.
    | None -> false);
  (* Zero drops must leave both exports byte-identical to the default. *)
  check_str "zero drops leave jsonl unchanged"
    (Telemetry.Export.jsonl events)
    (Telemetry.Export.jsonl ~dropped:0 events);
  check_str "zero drops leave chrome unchanged"
    (Telemetry.Export.chrome events)
    (Telemetry.Export.chrome ~dropped:0 events)

let test_histogram () =
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.add h "b";
  Telemetry.Histogram.add h ~by:2 "a";
  Telemetry.Histogram.add h "b";
  check_int "accumulated count" 2 (Telemetry.Histogram.count h "b");
  check_int "absent key counts zero" 0 (Telemetry.Histogram.count h "zz");
  check "readout is key-sorted" true
    (Telemetry.Histogram.to_list h = [ ("a", 2); ("b", 2) ])

(* ------------------------------------------------------------------ *)
(* Timeline capture: determinism and content. *)

let small_params = { Run.default_params with Run.scale = 1 }
let libquan () = List.hd (Suite.find_by_name "libquan")

let test_timeline_jobs_invariant () =
  let t1 = Timeline.capture ~jobs:1 ~params:small_params (libquan ()) in
  let t4 = Timeline.capture ~jobs:4 ~params:small_params (libquan ()) in
  check "timeline captured events" true (List.length t1.Timeline.events > 0);
  check_int "one sink per ladder rung"
    (List.length Scheme.ladder)
    (List.length t1.Timeline.per_task);
  check_str "chrome export byte-identical at jobs 1 vs 4" (Timeline.chrome t1)
    (Timeline.chrome t4);
  check_str "jsonl export byte-identical at jobs 1 vs 4" (Timeline.jsonl t1)
    (Timeline.jsonl t4)

let test_timeline_contains_paper_events () =
  let t = Timeline.capture ~jobs:2 ~params:small_params (libquan ()) in
  let names =
    List.sort_uniq compare
      (List.map (fun (e : Telemetry.event) -> e.Telemetry.name) t.Timeline.events)
  in
  List.iter
    (fun expected ->
      check (expected ^ " events present") true (List.mem expected names))
    [ "occupancy"; "quarantine"; "release"; "verify_window"; "region" ]

let test_chrome_roundtrip () =
  let t = Timeline.capture ~jobs:1 ~params:small_params (libquan ()) in
  let json = Json.parse (Timeline.chrome t) in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phases = List.filter_map (Json.str_member "ph") events in
  check_int "every element carries a phase" (List.length events) (List.length phases);
  check "phases are the trace-event alphabet" true
    (List.for_all (fun p -> List.mem p [ "C"; "i"; "B"; "E"; "X"; "M" ]) phases);
  let data = List.filter (fun e -> Json.str_member "ph" e <> Some "M") events in
  check_int "one JSON object per captured event"
    (List.length t.Timeline.events)
    (List.length data);
  List.iter
    (fun e ->
      check "has name" true (Json.str_member "name" e <> None);
      check "has ts" true (Json.num_member "ts" e <> None);
      check "has pid" true (Json.num_member "pid" e <> None);
      if Json.str_member "ph" e = Some "X" then
        check "X spans carry a duration" true
          (match Json.num_member "dur" e with Some d -> d >= 0. | None -> false))
    data;
  (* B/E spans balance on every (pid, tid) track. *)
  let tracks = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match (Json.str_member "ph" e, Json.num_member "pid" e, Json.num_member "tid" e) with
      | Some ("B" | "E"), Some pid, Some tid ->
        let key = (pid, tid) in
        let depth = Option.value (Hashtbl.find_opt tracks key) ~default:0 in
        let depth' = if Json.str_member "ph" e = Some "B" then depth + 1 else depth - 1 in
        check "E never precedes its B" true (depth' >= 0);
        Hashtbl.replace tracks key depth'
      | _ -> ())
    data;
  Hashtbl.iter (fun _ depth -> check_int "all B spans closed" 0 depth) tracks

let test_jsonl_roundtrip () =
  let s = Telemetry.create ~task:1 () in
  Telemetry.counter s ~ts:10 "occupancy" [ ("sb", Telemetry.Int 2) ];
  Telemetry.instant s ~ts:11 ~cat:"sb" "q\"uote\\and\ttab"
    ~args:[ ("f", Telemetry.Float 1.5); ("b", Telemetry.Bool true) ];
  Telemetry.complete s ~ts:12 ~dur:7 "span";
  let lines =
    String.split_on_char '\n' (Telemetry.Export.jsonl (Telemetry.events s))
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" 3 (List.length lines);
  let parsed = List.map Json.parse lines in
  let second = List.nth parsed 1 in
  check_str "string escaping round-trips" "q\"uote\\and\ttab"
    (Option.get (Json.str_member "name" second));
  check "float arg round-trips" true
    (match Json.member "args" second with
    | Some a -> Json.num_member "f" a = Some 1.5
    | None -> false);
  check "dur survives" true
    (Json.num_member "dur" (List.nth parsed 2) = Some 7.)

(* ------------------------------------------------------------------ *)
(* Per-pass compiler spans. *)

let test_pass_spans_match_pipeline () =
  let prog = (libquan ()).Suite.build ~scale:1 in
  List.iter
    (fun (scheme : Scheme.t) ->
      let opts = Scheme.compile_opts scheme ~sb_size:4 in
      let tel = Telemetry.create () in
      ignore (Pass_pipeline.compile ~opts ~tel prog);
      let spans =
        List.filter
          (fun (e : Telemetry.event) -> String.equal e.Telemetry.cat "compiler")
          (Telemetry.events tel)
      in
      check_str
        (scheme.Scheme.name ^ ": span names are the declared pass list")
        (String.concat "," (Pass_pipeline.pass_names opts))
        (String.concat ","
           (List.map (fun (e : Telemetry.event) -> e.Telemetry.name) spans)))
    Scheme.ladder

(* A checked compile adds one "analysis" span per registry round, named
   and ordered as the check_log entries, whose "checks" arg lists the
   checks that ran. *)
let test_registry_spans_match_check_log () =
  let prog = (libquan ()).Suite.build ~scale:1 in
  List.iter
    (fun level ->
      let tel = Telemetry.create () in
      let c =
        Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts ~tel ~check:level prog
      in
      let rounds =
        List.filter_map
          (fun (e : Telemetry.event) ->
            if String.equal e.Telemetry.cat "analysis" then
              match (e.Telemetry.kind, e.Telemetry.args) with
              | Telemetry.Complete _, [ ("checks", Telemetry.Str ran) ] ->
                Some (e.Telemetry.name ^ ": " ^ ran)
              | _ -> Some (e.Telemetry.name ^ ": malformed span")
            else None)
          (Telemetry.events tel)
      in
      Alcotest.(check (list string))
        "one span per check_log entry, in order"
        (List.map
           (fun (round, ran) -> round ^ ": " ^ String.concat "," ran)
           c.Pass_pipeline.check_log)
        rounds;
      check "a checked compile logs rounds" true (rounds <> []))
    [ Pass_pipeline.Final; Pass_pipeline.PerPass; Pass_pipeline.PerPassFull ]

let test_compile_disabled_sink_untouched () =
  let prog = (libquan ()).Suite.build ~scale:1 in
  let a = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
  let b =
    Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts ~tel:Telemetry.null prog
  in
  check_int "disabled telemetry does not change the compile"
    a.Pass_pipeline.stats.Static_stats.code_size
    b.Pass_pipeline.stats.Static_stats.code_size;
  ignore
    (Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts ~tel:Telemetry.null
       ~check:Pass_pipeline.PerPass prog);
  check_int "null sink stayed empty" 0 (Telemetry.length Telemetry.null)

(* ------------------------------------------------------------------ *)
(* Stats JSON surfaces. *)

let test_static_stats_json () =
  let prog = (libquan ()).Suite.build ~scale:1 in
  let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
  let json = Json.parse (Static_stats.to_json c.Pass_pipeline.stats) in
  check "regions is a number" true (Json.num_member "regions" json <> None);
  check "ckpts_inserted present" true (Json.num_member "ckpts_inserted" json <> None);
  check "code_size_increase_percent present" true
    (Json.num_member "code_size_increase_percent" json <> None)

let test_static_stats_diff () =
  let prog = (libquan ()).Suite.build ~scale:1 in
  let c = Pass_pipeline.compile ~opts:Pass_pipeline.turnpike_opts prog in
  let stats = c.Pass_pipeline.stats in
  check "diff of a copy against itself is empty" true
    (Static_stats.diff ~before:(Static_stats.copy stats) ~after:stats = [])

let test_sensor_json () =
  let s = Turnpike_arch.Sensor.for_wcdl ~wcdl:10 ~clock_ghz:2.5 () in
  let json = Json.parse (Turnpike_arch.Sensor.to_json s) in
  check "wcdl recorded" true (Json.num_member "wcdl" json = Some 10.);
  check "sensor count positive" true
    (match Json.num_member "num_sensors" json with
    | Some n -> n > 0.
    | None -> false)

let tests =
  [
    ("null sink records nothing", `Quick, test_null_sink);
    ("sink capacity and seq", `Quick, test_sink_capacity_and_seq);
    ("merge orders by (task, seq)", `Quick, test_merge_orders_by_task_seq);
    ("with_span is exception-safe", `Quick, test_with_span_exception_safe);
    ("dropped counts surface in exports", `Quick, test_dropped_surfaced_in_exports);
    ("histogram semantics", `Quick, test_histogram);
    ("timeline byte-identical across --jobs", `Quick, test_timeline_jobs_invariant);
    ("timeline contains the paper's events", `Quick, test_timeline_contains_paper_events);
    ("chrome export round-trips", `Quick, test_chrome_roundtrip);
    ("jsonl export round-trips", `Quick, test_jsonl_roundtrip);
    ("per-pass spans match the pipeline", `Quick, test_pass_spans_match_pipeline);
    ("registry spans match the check log", `Quick, test_registry_spans_match_check_log);
    ("disabled sink leaves compile untouched", `Quick, test_compile_disabled_sink_untouched);
    ("static stats JSON well-formed", `Quick, test_static_stats_json);
    ("static stats diff", `Quick, test_static_stats_diff);
    ("sensor deployment JSON", `Quick, test_sensor_json);
  ]
