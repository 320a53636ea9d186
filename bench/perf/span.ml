(* Spans and counts for the traced run, recorded from the harness around
   each call into a layer — never from inside the program.

   Each domain records into its own buffer: flat arrays of name, start,
   end, parent span, op id and words allocated, preallocated and doubled
   when full, so recording never takes a lock. The pool spawns fresh
   domains for every map, so a buffer is taken from a free list when a
   domain first records and handed back when the domain exits; every
   buffer ever created stays registered for the export at the end.

   With recording off (the untraced run, and the reference rounds of the
   traced run) [span] is one atomic load and a direct call. *)

type buf = {
  tid : int;
  mutable len : int;
  mutable name : string array;
  mutable op : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable alloc : float array;
  mutable cur : int;  (** innermost open span of this domain, or -1 *)
  mutable cur_op : int;
}

let on = Atomic.make false
let set_recording b = Atomic.set on b
let recording () = Atomic.get on
let now = Unix.gettimeofday

(* Words this domain has allocated so far ([Gc.counters] is per domain). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let capacity = 1 lsl 14

let create tid =
  {
    tid;
    len = 0;
    name = Array.make capacity "";
    op = Array.make capacity 0;
    parent = Array.make capacity 0;
    t0 = Array.make capacity 0.;
    t1 = Array.make capacity 0.;
    alloc = Array.make capacity 0.;
    cur = -1;
    cur_op = -1;
  }

let lock = Mutex.create ()
let all : buf list ref = ref []
let free : buf list ref = ref []

let acquire () =
  Mutex.protect lock (fun () ->
      match !free with
      | b :: rest ->
        free := rest;
        b
      | [] ->
        let b = create (List.length !all) in
        all := b :: !all;
        b)

let key =
  Domain.DLS.new_key (fun () ->
      let b = acquire () in
      Domain.at_exit (fun () -> Mutex.protect lock (fun () -> free := b :: !free));
      b)

let grow b =
  let n = 2 * Array.length b.name in
  let ext a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.name <- ext b.name "";
  b.op <- ext b.op 0;
  b.parent <- ext b.parent 0;
  b.t0 <- ext b.t0 0.;
  b.t1 <- ext b.t1 0.;
  b.alloc <- ext b.alloc 0.

let next_op = Atomic.make 0

let record b ~root name f =
  if b.len = Array.length b.name then grow b;
  let i = b.len in
  b.len <- i + 1;
  let saved_cur = b.cur and saved_op = b.cur_op in
  if root then b.cur_op <- Atomic.fetch_and_add next_op 1;
  b.name.(i) <- name;
  b.op.(i) <- b.cur_op;
  b.parent.(i) <- (if root then -1 else b.cur);
  b.cur <- i;
  let close () =
    b.t1.(i) <- now ();
    b.alloc.(i) <- words () -. b.alloc.(i);
    b.cur <- saved_cur;
    b.cur_op <- saved_op
  in
  b.alloc.(i) <- words ();
  b.t0.(i) <- now ();
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let span name f =
  if not (Atomic.get on) then f ()
  else record (Domain.DLS.get key) ~root:false name f

(* An op is the root of a span tree (one fault, one program, one kernel
   row); its children share its op id. The op is timed whether or not
   recording is on: its latency is an end-to-end sample. *)
let op name f =
  let t0 = now () in
  let v =
    if not (Atomic.get on) then f ()
    else record (Domain.DLS.get key) ~root:true name f
  in
  (v, now () -. t0)

(* Counts of the work the layers did (trace events, simulated cycles,
   fault outcomes), recorded while recording is on, from any domain. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let counts_lock = Mutex.create ()

let count name v =
  if Atomic.get on then
    Mutex.protect counts_lock (fun () ->
        Hashtbl.replace counts name
          (v +. Option.value ~default:0. (Hashtbl.find_opt counts name)))

(* For values that are a property of one round, not a sum over rounds. *)
let set name v =
  if Atomic.get on then Mutex.protect counts_lock (fun () -> Hashtbl.replace counts name v)

let counted name = Option.value ~default:0. (Hashtbl.find_opt counts name)

let reset () =
  Mutex.protect lock (fun () -> List.iter (fun b -> b.len <- 0) !all);
  Hashtbl.reset counts

(* Summaries *)

type totals = { mutable n : int; mutable dur : float; mutable words : float }

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let iter_spans f =
  List.iter
    (fun b ->
      let child = Array.make b.len 0. in
      for i = 0 to b.len - 1 do
        let p = b.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) +. (b.t1.(i) -. b.t0.(i))
      done;
      for i = 0 to b.len - 1 do
        let dur = b.t1.(i) -. b.t0.(i) in
        f b i ~dur ~self:(dur -. child.(i))
      done)
    !all

(* Per span name: calls, seconds, words allocated. *)
let by_name () =
  let t = Hashtbl.create 32 in
  iter_spans (fun b i ~dur ~self:_ ->
      let s =
        match Hashtbl.find_opt t b.name.(i) with
        | Some s -> s
        | None ->
          let s = { n = 0; dur = 0.; words = 0. } in
          Hashtbl.replace t b.name.(i) s;
          s
      in
      s.n <- s.n + 1;
      s.dur <- s.dur +. dur;
      s.words <- s.words +. b.alloc.(i));
  t

(* The share of op time spent inside a layer call, and the harness's own
   time inside ops (the ops' self time). *)
let coverage () =
  let root = ref 0. and self = ref 0. in
  iter_spans (fun b i ~dur ~self:s ->
      if b.parent.(i) < 0 && b.op.(i) >= 0 then begin
        root := !root +. dur;
        self := !self +. s
      end);
  ((if !root > 0. then (!root -. !self) /. !root else 0.), !self)

(* Chrome trace-event JSON (load in Perfetto or chrome://tracing): one
   complete event per span, one track per domain buffer. *)
let write_chrome path =
  let origin = ref Float.infinity in
  List.iter
    (fun b -> if b.len > 0 then origin := Float.min !origin b.t0.(0))
    !all;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      let first = ref true in
      List.iter
        (fun b ->
          for i = 0 to b.len - 1 do
            if not !first then output_string oc ",\n";
            first := false;
            Printf.fprintf oc
              "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \
               \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \
               \"op\": %d, \"parent\": %d, \"alloc_words\": %.0f}}"
              (Json.escape b.name.(i)) (layer_of b.name.(i)) b.tid
              ((b.t0.(i) -. !origin) *. 1e6)
              ((b.t1.(i) -. b.t0.(i)) *. 1e6)
              i b.op.(i) b.parent.(i) b.alloc.(i)
          done)
        (List.rev !all);
      output_string oc "\n]}\n")
