(* Measures what successive halving buys the design-space explorer:
   explores the same grid twice — once with the budget ladder (proxy
   rungs promote only the Pareto-best half toward full scale) and once
   exhaustively (every point evaluated at the full-scale budget) — and
   reports wall-clock, evaluation counts and the saving as JSON on
   stdout. The compile/trace cache is cleared before each phase so
   neither inherits the other's warm state.

   Usage:
     dune exec bench/explore_overhead.exe -- [--grid G] [--scale N] \
       [--fuel N] [--jobs N] > BENCH_explore.json *)

module X = Turnpike.Explore
module DP = Turnpike.Design_point
module Run = Turnpike.Run

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  let grid = ref "default" in
  let scale = ref 1 in
  let fuel = ref 20_000 in
  let rec parse = function
    | [] -> ()
    | "--grid" :: g :: rest ->
      grid := g;
      parse rest
    | "--scale" :: n :: rest ->
      scale := int_of_string n;
      parse rest
    | "--fuel" :: n :: rest ->
      fuel := int_of_string n;
      parse rest
    | "--jobs" :: n :: rest ->
      Turnpike_parallel.set_default_jobs (int_of_string n);
      parse rest
    | x :: _ ->
      Printf.eprintf "unknown argument %s; known: --grid G --scale N --fuel N --jobs N\n" x;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec =
    match DP.spec_of_string !grid with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "--grid: %s\n" msg;
      exit 2
  in
  let params = { Run.default_params with Run.scale = !scale; fuel = !fuel } in
  let budgets = X.budgets_for params in
  let full_only = [ List.nth budgets (List.length budgets - 1) ] in
  Run.clear_cache ();
  let halving_s, halving = time (fun () -> X.run ~budgets ~params ~spec ()) in
  Run.clear_cache ();
  let exhaustive_s, exhaustive =
    time (fun () -> X.run ~budgets:full_only ~params ~spec ())
  in
  if not halving.X.validated then begin
    prerr_endline "halving frontier failed full-scale re-validation";
    exit 1
  end;
  (* Halving must not promote more than half the grid to full scale, and
     its frontier must be drawn from the same full-scale evaluations the
     exhaustive pass performs. *)
  if 2 * halving.X.full_scale_evals > halving.X.grid_size then begin
    Printf.eprintf "halving promoted %d/%d points to full scale (> 50%%)\n"
      halving.X.full_scale_evals halving.X.grid_size;
    exit 1
  end;
  let total_evals r =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.X.evals_per_budget
  in
  let pct_saved =
    if exhaustive_s > 0. then 100. *. (exhaustive_s -. halving_s) /. exhaustive_s
    else 0.
  in
  Printf.printf
    "{\n\
    \  \"grid\": \"%s\",\n\
    \  \"grid_points\": %d,\n\
    \  \"scale\": %d,\n\
    \  \"fuel\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"benches\": \"%s\",\n\
    \  \"halving_evals_per_budget\": \"%s\",\n\
    \  \"halving_total_evals\": %d,\n\
    \  \"full_scale_evals\": %d,\n\
    \  \"full_scale_fraction\": %.3f,\n\
    \  \"frontier_size\": %d,\n\
    \  \"frontier_validated\": %b,\n\
    \  \"halving_s\": %.3f,\n\
    \  \"halving_points_per_s\": %.3f,\n\
    \  \"exhaustive_s\": %.3f,\n\
    \  \"halving_saving_percent\": %.2f,\n\
    \  \"host\": { \"cpus\": %d, \"note\": \"wall-clock on this container; \
     the evaluation counts and the full-scale fraction are the portable \
     signal. Exhaustive = every grid point at the full-scale budget with \
     CI-stopped campaigns; halving reaches the same frontier while \
     running full scale on at most half the grid.\" },\n\
    \  \"note\": \"deterministic at any --jobs: grid order, index-ordered \
     fan-out and seeded CI-stopped campaigns; the frontier re-validates \
     bit-identically at full scale before this bench reports.\"\n\
     }\n"
    !grid halving.X.grid_size !scale !fuel
    (Turnpike_parallel.effective_jobs ())
    (String.concat ", " halving.X.benches)
    (String.concat ", "
       (List.map
          (fun (l, n) -> Printf.sprintf "%s=%d" l n)
          halving.X.evals_per_budget))
    (total_evals halving) halving.X.full_scale_evals
    (float_of_int halving.X.full_scale_evals
    /. float_of_int (max 1 halving.X.grid_size))
    (List.length halving.X.frontier)
    halving.X.validated halving_s
    (float_of_int (total_evals halving) /. max 1e-9 halving_s)
    exhaustive_s pct_saved
    (Domain.recommended_domain_count ());
  ignore exhaustive
