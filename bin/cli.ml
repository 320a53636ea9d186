(* The flag layer of both front ends, turnpike-cli and bench/main.exe.

   Every flag the two share is declared here once, as a Cmdliner term
   that checks its value when Cmdliner evaluates it, before any command
   body runs: a value out of range is a usage error that names the flag,
   and a --csv directory is created, or the run exits 1 naming the path.
   Both binaries end in [eval], which maps every usage error to exit 2.

   Cmdliner evaluates a command's terms left to right and stops at the
   first error, so a command lists the terms that touch the file system
   (--csv here, -b and export files in turnpike-cli) after the pure ones:
   a usage error then leaves nothing behind. *)

open Cmdliner
module Verifier = Turnpike_resilience.Verifier

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1
        ~doc:
          "when a run fails its own check (an SDC or a crash, a lint Error, \
           an unconvicted mutant, a frontier that does not re-validate), or \
           cannot use what it was given: an unknown benchmark, a .tk file \
           that does not compile, a $(b,--csv) directory that cannot be \
           created, an export file that cannot be written.";
      info 2
        ~doc:
          "on a usage error: an unknown flag, or a flag value that is \
           malformed, out of range or not one of the listed choices. \
           Nothing has run.";
      info 125 ~doc:"on an unexpected internal error (an uncaught exception).";
    ]

let info ?version ~doc name = Cmd.info name ?version ~doc ~exits

let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)

(* A value checked when Cmdliner evaluates it. *)
let checked ~flag ~expects ok show arg =
  let check v =
    if ok v then `Ok v
    else `Error (false, Printf.sprintf "%s expects %s, got %s" flag expects (show v))
  in
  Term.(ret (const check $ arg))

let positive ~flag ~expects arg =
  checked ~flag ~expects (fun n -> n >= 1) string_of_int arg

(* Worker domains for experiment grids and campaigns (see
   Turnpike_parallel), installed for its side effect before the command
   body runs. The pool takes 0 to [Turnpike_parallel.max_jobs] domains
   (the runtime's limit); the flag refuses any other width as a usage
   error. *)
let jobs =
  let max_jobs = Turnpike_parallel.max_jobs in
  Term.(
    const Turnpike_parallel.set_default_jobs
    $ checked ~flag:"--jobs"
        ~expects:(Printf.sprintf "a domain count from 0 to %d" max_jobs)
        (fun n -> n >= 0 && n <= max_jobs)
        string_of_int
        Arg.(
          value & opt int 0
          & info [ "j"; "jobs" ] ~docv:"N"
              ~doc:
                (Printf.sprintf
                   "Worker domains, from 0 to %d (0, the default, means one per \
                    CPU; 1 is strictly sequential). Results are identical at any \
                    job count."
                   max_jobs)))

let scale =
  positive ~flag:"--scale" ~expects:"a positive factor"
    Arg.(
      value
      & opt int Turnpike.Run.default_scale
      & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor (iteration multiplier).")

(* ---- The campaign flags ---- *)

let seed =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (fault draws and batch order).")

(* An empty campaign would report "0 SDC" over nothing: a vacuous pass. *)
let faults
    ?(doc =
      "Campaign size: number of injected faults (with --ci, the maximum \
       fault supply).") default =
  positive ~flag:"--faults" ~expects:"a positive count"
    Arg.(value & opt int default & info [ "n"; "faults" ] ~docv:"N" ~doc)

let ci =
  checked ~flag:"--ci" ~expects:"a positive half-width"
    (function None -> true | Some w -> w > 0.0)
    (function None -> "" | Some w -> Printf.sprintf "%g" w)
    Arg.(
      value
      & opt (some float) None
      & info [ "ci" ] ~docv:"WIDTH"
          ~doc:
            "Stop when the confidence interval's half-width on the SDC rate \
             reaches $(docv) (e.g. 0.01 for +/- 1%).")

(* The sequential-stopping rule: [Some] exactly when --ci was given, with
   the confidence and batch size applied over the verifier's default. *)
let stopping =
  let default = Verifier.default_stopping in
  let confidence =
    checked ~flag:"--confidence" ~expects:"a level strictly between 0 and 1"
      (fun c -> c > 0.0 && c < 1.0)
      (Printf.sprintf "%g")
      Arg.(
        value
        & opt float default.Verifier.confidence
        & info [ "confidence" ] ~docv:"C" ~doc:"Confidence level of the stopping interval.")
  in
  let batch =
    positive ~flag:"--batch" ~expects:"a positive count"
      Arg.(
        value
        & opt int default.Verifier.batch
        & info [ "batch" ] ~docv:"B"
            ~doc:"Faults per sequential batch of the --ci stopping loop.")
  in
  let rule ci confidence batch =
    Option.map
      (fun half_width -> { default with Verifier.half_width; confidence; batch })
      ci
  in
  Term.(const rule $ ci $ confidence $ batch)

(* ---- Output ---- *)

(* Create the --csv directory (one level, as mkdir does), keeping an
   existing one, or exit 1 naming the path and the reason. *)
let csv ~doc =
  let make prog dir =
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _)
      when (try Sys.is_directory dir with Sys_error _ -> false) ->
      ()
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "%s: cannot create directory %s: %s\n" prog dir
        (Unix.error_message e);
      exit 1
  in
  let create prog dir =
    Option.iter (make prog) dir;
    dir
  in
  Term.(
    const create $ main_name
    $ Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc))
