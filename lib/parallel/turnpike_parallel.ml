(* Domain-based work pool. Tasks are indexed; workers pull the next index
   from an atomic counter, so scheduling is dynamic but results are always
   delivered in task order — identical output regardless of the number of
   domains. [jobs = 1] runs every task in the calling domain, preserving
   strictly sequential behaviour.

   The pool sits below every simulation layer (it has no Turnpike
   dependencies), so both the experiment grid in [Turnpike.Experiments]
   and the per-fault campaign fan-out in [Turnpike_resilience.Verifier]
   run on the same domain budget. A map issued from inside a worker runs
   sequentially in that worker (tracked with a domain-local flag): nested
   fan-out never multiplies the domain count past the configured width. *)

module Telemetry = Turnpike_telemetry

let default_jobs : int Atomic.t = Atomic.make 0
(* 0 means "auto": the runtime's recommended domain count. *)

(* Pool telemetry. When a sink is installed, every [map] records one
   wall-clock span per task (tid = worker index) plus a map-level span,
   and publishes a [map_stats] summary — per-worker busy time against the
   map's wall time, the utilization evidence the multi-core scaling
   numbers need. The default [Telemetry.null] sink keeps the task loop
   free of clock reads. *)
let telemetry : Telemetry.sink Atomic.t = Atomic.make Telemetry.null

let set_telemetry s = Atomic.set telemetry s

type map_stats = {
  tasks : int;
  jobs : int;
  wall_us : int;
  busy_us : int array; (* per worker; index 0 is the calling domain *)
  worker_tasks : int array;
}

let utilization (s : map_stats) =
  if s.wall_us <= 0 || s.jobs = 0 then 0.0
  else
    let busy = Array.fold_left ( + ) 0 s.busy_us in
    float_of_int busy /. (float_of_int s.wall_us *. float_of_int s.jobs)

let last_stats : map_stats option Atomic.t = Atomic.make None

let last_map_stats () = Atomic.get last_stats

(* The OCaml 5 runtime runs at most 128 domains at once (Max_domains on
   64-bit), so a wider pool would fail partway through spawning its
   workers. A width is checked before any domain is spawned. *)
let max_jobs = 128

let check_width ~fn jobs =
  if jobs < 0 || jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Turnpike_parallel.%s: %d domains (the width must be from 0 to %d)"
         fn jobs max_jobs)

let set_default_jobs n =
  check_width ~fn:"set_default_jobs" n;
  Atomic.set default_jobs n

let effective_jobs () =
  match Atomic.get default_jobs with
  | 0 -> Domain.recommended_domain_count ()
  | n -> n

(* True while the current domain is executing tasks on behalf of a pool;
   a nested [map] then degrades to sequential instead of spawning. *)
let inside_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Exceptions raised by tasks are captured per-index and the one with the
   lowest task index is re-raised after all workers drain — so failure
   behaviour is deterministic too, and no domain is left unjoined. *)
let map ?jobs (f : 'a -> 'b) (tasks : 'a array) : 'b array =
  let n = Array.length tasks in
  let jobs =
    match jobs with
    | Some j ->
      check_width ~fn:"map" j;
      min n (max 1 j)
    | None -> min n (effective_jobs ())
  in
  let nested = Domain.DLS.get inside_worker in
  let tel = Atomic.get telemetry in
  (* A nested map is accounted to the enclosing worker's task span, so it
     records nothing of its own. *)
  let record = Telemetry.enabled tel && not nested in
  if jobs <= 1 || n <= 1 || nested then
    if not record then Array.map f tasks
    else begin
      let t0 = Telemetry.Clock.now_us () in
      let busy = ref 0 in
      let results =
        Array.mapi
          (fun i x ->
            let s = Telemetry.Clock.now_us () in
            let v = f x in
            let d = Telemetry.Clock.now_us () - s in
            busy := !busy + d;
            Telemetry.complete tel ~ts:s ~dur:d ~tid:0 ~cat:"pool"
              ~args:[ ("index", Telemetry.Int i) ]
              "task";
            v)
          tasks
      in
      let wall = Telemetry.Clock.now_us () - t0 in
      Telemetry.complete tel ~ts:t0 ~dur:wall ~tid:1 ~cat:"pool"
        ~args:[ ("tasks", Telemetry.Int n); ("jobs", Telemetry.Int 1) ]
        "map";
      Atomic.set last_stats
        (Some
           {
             tasks = n;
             jobs = 1;
             wall_us = wall;
             busy_us = [| !busy |];
             worker_tasks = [| n |];
           });
      results
    end
  else begin
    let results : 'b option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let next = Atomic.make 0 in
    let t0 = if record then Telemetry.Clock.now_us () else 0 in
    (* Each slot is written by exactly its own worker. *)
    let busy = Array.make jobs 0 in
    let worker_tasks = Array.make jobs 0 in
    let run_task i =
      match f tasks.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    in
    let rec worker w =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if record then begin
          let s = Telemetry.Clock.now_us () in
          run_task i;
          let d = Telemetry.Clock.now_us () - s in
          busy.(w) <- busy.(w) + d;
          worker_tasks.(w) <- worker_tasks.(w) + 1;
          Telemetry.complete tel ~ts:s ~dur:d ~tid:w ~cat:"pool"
            ~args:[ ("index", Telemetry.Int i) ]
            "task"
        end
        else run_task i;
        worker w
      end
    in
    let guarded_worker w () =
      Domain.DLS.set inside_worker true;
      Fun.protect
        (fun () -> worker w)
        ~finally:(fun () -> Domain.DLS.set inside_worker false)
    in
    let helpers =
      List.init (jobs - 1) (fun k -> Domain.spawn (guarded_worker (k + 1)))
    in
    guarded_worker 0 ();
    List.iter Domain.join helpers;
    if record then begin
      let wall = Telemetry.Clock.now_us () - t0 in
      Telemetry.complete tel ~ts:t0 ~dur:wall ~tid:jobs ~cat:"pool"
        ~args:[ ("tasks", Telemetry.Int n); ("jobs", Telemetry.Int jobs) ]
        "map";
      Atomic.set last_stats
        (Some { tasks = n; jobs; wall_us = wall; busy_us = busy; worker_tasks })
    end;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function Some v -> v | None -> assert false (* all indices visited *))
      results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

(* The (item × config) grid pattern used by the figure drivers: flatten the
   cartesian product into one task list, fan it out, and regroup the
   results per item (each item owns a consecutive run of |configs| tasks,
   so regrouping is deterministic). *)
let grid ?jobs ~items ~configs (f : 'a -> 'c -> 'b) : ('a * ('c * 'b) list) list =
  let tasks =
    List.concat_map (fun it -> List.map (fun c -> (it, c)) configs) items
  in
  let results = map_list ?jobs (fun (it, c) -> f it c) tasks in
  let k = List.length configs in
  let rec split acc rs = function
    | [] ->
      assert (rs = []);
      List.rev acc
    | it :: items ->
      let rec take n rs =
        if n = 0 then ([], rs)
        else
          match rs with
          | r :: rest ->
            let taken, rest = take (n - 1) rest in
            (r :: taken, rest)
          | [] -> assert false
      in
      let mine, rest = take k rs in
      split ((it, List.combine configs mine) :: acc) rest items
  in
  split [] results items
