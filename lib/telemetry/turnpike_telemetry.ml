(* Counters, spans and a bounded event sink with pluggable export (JSONL
   and Chrome trace-event JSON, loadable in Perfetto). The library has no
   Turnpike dependencies and sits next to [Turnpike_parallel] below every
   simulation layer.

   Determinism contract: every event carries a (task, seq) key — [task]
   identifies the producing sink (one sink per unit of parallel work) and
   [seq] is the sink-local emission index. [merge] sorts by that key, so
   the merged stream depends only on what each task emitted, never on how
   tasks interleaved across domains. Cycle-stamped simulation events are
   therefore byte-identical at any --jobs count; wall-clock spans (compile
   profiling, pool utilization) are inherently run-dependent and are kept
   out of the deterministic timeline exports.

   Cost contract: the [null] sink is permanently disabled; every emission
   site guards on [enabled], which is a single immutable-field load, so a
   simulation run with telemetry off pays one predictable branch per
   would-be event and allocates nothing. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Counter | Instant | Begin | End | Complete of int

type event = {
  task : int;
  seq : int;
  ts : int;
  tid : int;
  cat : string;
  name : string;
  kind : kind;
  args : (string * value) list;
}

type sink = {
  enabled : bool;
  task : int;
  capacity : int;
  lock : Mutex.t;
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable next_seq : int;
}

let make ~enabled ~task ~capacity =
  {
    enabled;
    task;
    capacity;
    lock = Mutex.create ();
    events = [];
    count = 0;
    dropped = 0;
    next_seq = 0;
  }

let null = make ~enabled:false ~task:0 ~capacity:0

let default_capacity = 1_000_000

let create ?(task = 0) ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Telemetry.create: capacity must be positive";
  make ~enabled:true ~task ~capacity

let enabled t = t.enabled

let task t = t.task

(* The sink is shared between pool workers (pool spans) and its own task's
   simulation, so pushes are serialized; [seq] is assigned under the lock.
   Disabled sinks return before taking it. *)
let emit t ?(ts = 0) ?(tid = 0) ?(cat = "") ?(args = []) kind name =
  if t.enabled then begin
    Mutex.lock t.lock;
    if t.count < t.capacity then begin
      let e =
        { task = t.task; seq = t.next_seq; ts; tid; cat; name; kind; args }
      in
      t.next_seq <- t.next_seq + 1;
      t.events <- e :: t.events;
      t.count <- t.count + 1
    end
    else t.dropped <- t.dropped + 1;
    Mutex.unlock t.lock
  end

let counter t ~ts name args = emit t ~ts ~cat:"counter" ~args Counter name

let instant t ~ts ?tid ?cat ?args name = emit t ~ts ?tid ?cat ?args Instant name

let span_begin t ~ts ?tid ?cat ?args name = emit t ~ts ?tid ?cat ?args Begin name

let span_end t ~ts ?tid ?cat ?args name = emit t ~ts ?tid ?cat ?args End name

let complete t ~ts ~dur ?tid ?cat ?args name =
  emit t ~ts ?tid ?cat ?args (Complete (max 0 dur)) name

let events t =
  Mutex.lock t.lock;
  let es = List.rev t.events in
  Mutex.unlock t.lock;
  es

let length t = t.count

let dropped t = t.dropped

let merge sinks =
  let all = List.concat_map events sinks in
  List.sort
    (fun (a : event) (b : event) -> compare (a.task, a.seq) (b.task, b.seq))
    all

let total_dropped sinks = List.fold_left (fun acc s -> acc + dropped s) 0 sinks

(* ------------------------------------------------------------------ *)
(* String-keyed counting histogram with deterministic (sorted) readout;
   the attribution layers above bin events into these. *)

module Histogram = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add t ?(by = 1) key =
    Hashtbl.replace t key (by + Option.value (Hashtbl.find_opt t key) ~default:0)

  let count t key = Option.value (Hashtbl.find_opt t key) ~default:0

  (* Sorted by key, so readout never depends on hash order. *)
  let to_list t =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t [])
end

(* ------------------------------------------------------------------ *)
(* Wall-clock. The stdlib has no sub-second wall clock, so the source is
   pluggable: executables install [Unix.gettimeofday] at startup and the
   library defaults to [Sys.time] (CPU seconds) — monotonic enough for
   profiling spans, and no dependency from this bottom layer. *)

module Clock = struct
  let source : (unit -> float) Atomic.t = Atomic.make Sys.time

  let set f = Atomic.set source f

  let now_us () = int_of_float ((Atomic.get source) () *. 1e6)
end

(* Start/finish pair for wall-clock spans whose args are only known at the
   end (e.g. a compiler pass reporting the counter delta it produced).
   [span_start] does not even read the clock when the sink is disabled. *)
let span_start t = if t.enabled then Clock.now_us () else 0

let span_finish t ~start ?tid ?cat ?args name =
  if t.enabled then begin
    let now = Clock.now_us () in
    complete t ~ts:start ~dur:(now - start) ?tid ?cat ?args name
  end

let with_span t ?tid ?cat name f =
  if not t.enabled then f ()
  else begin
    let start = Clock.now_us () in
    match f () with
    | v ->
      span_finish t ~start ?tid ?cat name;
      v
    | exception e ->
      span_finish t ~start ?tid ?cat
        ~args:[ ("error", Str (Printexc.to_string e)) ]
        name;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Export. All numeric formatting is locale-independent and fixed-format
   so that equal event streams serialize to equal bytes. *)

module Export = struct
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let value_to_json = function
    | Int i -> string_of_int i
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.6g" f
    | Str s -> Printf.sprintf "\"%s\"" (escape s)
    | Bool b -> string_of_bool b

  let args_to_json args =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (value_to_json v))
           args)
    ^ "}"

  let phase = function
    | Counter -> "C"
    | Instant -> "i"
    | Begin -> "B"
    | End -> "E"
    | Complete _ -> "X"

  (* One self-describing JSON object per event; [jsonl] is one per line. *)
  let event_to_json (e : event) =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"task\":%d,\"seq\":%d,\"ts\":%d,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\""
         e.task e.seq e.ts e.tid (escape e.cat) (escape e.name)
         (phase e.kind));
    (match e.kind with
    | Complete dur -> Buffer.add_string b (Printf.sprintf ",\"dur\":%d" dur)
    | Counter | Instant | Begin | End -> ());
    if e.args <> [] then
      Buffer.add_string b (",\"args\":" ^ args_to_json e.args);
    Buffer.add_char b '}';
    Buffer.contents b

  (* Overflowed sinks are never silent: a positive [dropped] total appends
     a self-describing meta line so consumers can see the stream is
     incomplete. [dropped = 0] leaves output byte-identical to before. *)
  let jsonl ?(dropped = 0) events =
    String.concat "" (List.map (fun e -> event_to_json e ^ "\n") events)
    ^
    if dropped > 0 then
      Printf.sprintf "{\"meta\":\"telemetry\",\"dropped\":%d}\n" dropped
    else ""

  (* Chrome trace-event format (the JSON-object flavour with a
     "traceEvents" array), loadable in Perfetto / chrome://tracing. Each
     task becomes a process (pid = task), so parallel units of work get
     separate swim-lane groups; [tid] separates tracks within a task. *)
  let chrome_event (e : event) =
    let b = Buffer.create 160 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d"
         (escape e.name)
         (escape (if e.cat = "" then "event" else e.cat))
         (phase e.kind) e.ts e.task e.tid);
    (match e.kind with
    | Complete dur -> Buffer.add_string b (Printf.sprintf ",\"dur\":%d" dur)
    | Instant -> Buffer.add_string b ",\"s\":\"t\""
    | Counter | Begin | End -> ());
    if e.args <> [] then
      Buffer.add_string b (",\"args\":" ^ args_to_json e.args);
    Buffer.add_char b '}';
    Buffer.contents b

  let metadata ~pid ?tid ~meta_name name =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
      meta_name pid
      (Option.value tid ~default:0)
      (escape name)

  let chrome ?(process_names = []) ?(thread_names = []) ?(dropped = 0) events =
    let meta =
      List.map
        (fun (pid, name) -> metadata ~pid ~meta_name:"process_name" name)
        process_names
      @ List.map
          (fun ((pid, tid), name) ->
            metadata ~pid ~tid ~meta_name:"thread_name" name)
          thread_names
    in
    let body = meta @ List.map chrome_event events in
    let other =
      if dropped > 0 then
        Printf.sprintf ",\"otherData\":{\"droppedEvents\":%d}" dropped
      else ""
    in
    "{\"traceEvents\":[\n" ^ String.concat ",\n" body ^ "\n]" ^ other ^ "}\n"

  let to_file path contents =
    let oc = open_out path in
    Fun.protect
      (fun () -> output_string oc contents)
      ~finally:(fun () -> close_out oc)
end
