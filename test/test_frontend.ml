(* The .tk frontend: lexing/parsing diagnostics, lowering semantics,
   trace-equivalence of the examples/ ports against their template
   originals, --pipeline spec resolution, and fuzzing of the
   parse→lower→lint round trip. *)

open Turnpike_ir
module Tk = Turnpike_frontend.Tk
module Fuzz = Turnpike_frontend.Fuzz
module Srcloc = Turnpike_frontend.Srcloc
module PP = Turnpike_compiler.Pass_pipeline
module Templates = Turnpike_workloads.Templates
module Suite = Turnpike_workloads.Suite

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let compile_tk ?(scale = 1) src =
  match Tk.compile_string ~scale src with
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected frontend error: %s" e

let expect_error ?(scale = 1) src frag =
  match Tk.compile_string ~scale src with
  | Ok _ -> Alcotest.failf "expected a diagnostic containing %S" frag
  | Error e ->
    if not (contains e frag) then
      Alcotest.failf "diagnostic %S does not mention %S" e frag;
    (* every diagnostic is located: file:line:col: error: msg *)
    if not (contains e ": error: ") then
      Alcotest.failf "diagnostic %S is not in file:line:col form" e

(* Run to completion recording the ordered (address, value) store
   stream — the observable behaviour the ports must preserve. *)
let store_stream prog =
  let stores = ref [] in
  let hooks =
    {
      Interp.no_hooks with
      write_mem =
        (fun st a v ->
          stores := (a, v) :: !stores;
          Interp.set_mem st a v);
    }
  in
  let st = Interp.run ~hooks prog in
  (List.rev !stores, st)

(* Under `dune runtest' the cwd is _build/default/test; under
   `dune exec test/test_main.exe' it is the project root. *)
let example name =
  let up = Filename.concat ".." (Filename.concat "examples" name) in
  if Sys.file_exists up then up else Filename.concat "examples" name

let check_port ~file ~scale template =
  let tk_prog =
    match Tk.compile_file ~scale (example file) with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" file e
  in
  let tk_stores, tk_st = store_stream tk_prog in
  let tmpl_stores, tmpl_st = store_stream template in
  Alcotest.(check bool) "template stores something" true (tmpl_stores <> []);
  Alcotest.(check (list (pair int int))) "store stream" tmpl_stores tk_stores;
  Alcotest.(check bool) "final memory" true (Mem.first_diff tk_st.Interp.mem tmpl_st.Interp.mem = None);
  Alcotest.(check bool)
    "both complete" true
    (tk_st.Interp.halted && tmpl_st.Interp.halted)

(* ------------------------------------------------------------------ *)
(* Diagnostics: malformed input yields located errors, never raises.  *)

let test_lexer_diagnostics () =
  expect_error "kernel k { /* oops" "unterminated block comment";
  expect_error "kernel k { var x = 123abc; }" "malformed integer literal";
  expect_error "kernel k { var x = 0x; }" "malformed hexadecimal literal";
  expect_error "kernel k { var x = 0xZZ; }" "malformed integer literal";
  expect_error "kernel k { var x = 99999999999999999999999; }"
    "integer literal out of range";
  expect_error "kernel k { var x = $; }" "unexpected character";
  (* comments and hex literals lex fine *)
  let p =
    compile_tk
      "// line comment\nkernel k { /* block */ array a[1]; a[0] = 0xFF; }"
  in
  let stores, _ = store_stream p in
  Alcotest.(check (list int)) "hex literal value" [ 255 ] (List.map snd stores)

let test_parser_diagnostics () =
  expect_error "kernel k { var x = 1 }" "expected";
  expect_error "kernel k { var x = ; }" "expected an expression";
  expect_error "kernel k {" "expected";
  expect_error "kernel k { } trailing" "expected end of input";
  expect_error "kernel k { if (1) { } else 3; }" "expected";
  expect_error "module k { }" "expected"

let test_typecheck_diagnostics () =
  expect_error "kernel k { x = 1; }" "`x' is not declared";
  expect_error "kernel k { var x = 0; var x = 1; }" "already declared";
  expect_error "kernel k { const c = 1; c = 2; }" "cannot assign to a constant";
  expect_error "kernel k { array a[4]; a = 1; }" "without an index";
  expect_error "kernel k { var v = 0; v[0] = 1; }" "not an array";
  expect_error "kernel k { array a[4]; var x = a[4]; }" "out of bounds";
  expect_error "kernel k { array a[0]; }" "must be positive";
  expect_error "kernel k { var n = 4; array a[n]; }" "compile-time constant";
  expect_error "kernel k { scale = 2; }" "builtin constant";
  expect_error "kernel k { const scale = 2; }" "cannot be redeclared";
  expect_error "kernel k { if (1) { array a[4]; } }" "statically allocated";
  expect_error "kernel k { while (0) { input q = 1; } }"
    "initialised before execution"

(* ------------------------------------------------------------------ *)
(* Lowering semantics: the documented arithmetic edge cases hold both
   when constant-folded and when computed at run time.                *)

let test_semantics () =
  let src =
    {|
kernel semantics {
  const c = 6 * 7;
  array out[8];
  var z = 0;                    // defeats constant folding below
  out[0] = (7 + z) / z;         // division by zero yields 0
  out[1] = (13 + z) % z;        // remainder by zero yields 0
  out[2] = (1 << (3 + z)) - 2;  // 6
  out[3] = ((5 + z) < 9) + (5 == 5 + z) + !z;   // 1 + 1 + 1
  out[4] = ((3 + z) && z) | (z || 7 + z);       // 0 | 1
  out[5] = (-(9 + z)) >> 1;     // arithmetic shift: -5
  out[6] = c;                   // folded to 42
  out[7] = (2 + z) << 65;       // shift count masked to 6 bits: 4
}
|}
  in
  let stores, st = store_stream (compile_tk src) in
  Alcotest.(check (list int))
    "values" [ 0; 0; 6; 3; 1; -5; 42; 4 ] (List.map snd stores);
  Alcotest.(check bool) "halted" true st.Interp.halted

let test_control_flow () =
  let src =
    {|
kernel control {
  array out[4];
  var i = 0;
  var s = 0;
  while (i < 10) {
    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
    i = i + 1;
  }
  out[0] = s;                   // 0+2+4+6+8 - 5 = 15
  var j = 0;
  for (j = 0; j < 3; j = j + 1) { out[1] = out[1] + j; }
  out[2] = j;                   // 3
}
|}
  in
  let stores, _ = store_stream (compile_tk src) in
  Alcotest.(check (list int))
    "values" [ 15; 0; 1; 3; 3 ] (List.map snd stores)

let test_scale_and_inputs () =
  let src =
    {|
kernel scaled {
  const n = 2 * scale;
  input q = 5;
  array out[n];
  for (var i = 0; i < n; i = i + 1) { out[i] = q + i; }
}
|}
  in
  let stores1, _ = store_stream (compile_tk ~scale:1 src) in
  Alcotest.(check (list int)) "scale 1" [ 5; 6 ] (List.map snd stores1);
  let stores3, _ = store_stream (compile_tk ~scale:3 src) in
  Alcotest.(check (list int))
    "scale 3" [ 5; 6; 7; 8; 9; 10 ] (List.map snd stores3)

(* ------------------------------------------------------------------ *)
(* The examples/ ports are trace-equivalent to their templates.       *)

let test_port_triad () =
  check_port ~file:"triad.tk" ~scale:1 (Templates.triad ~iters:8 ());
  check_port ~file:"triad.tk" ~scale:2 (Templates.triad ~iters:16 ())

let test_port_stencil () =
  check_port ~file:"stencil.tk" ~scale:1 (Templates.stencil ~iters:8 ())

let test_port_histogram () =
  check_port ~file:"histogram.tk" ~scale:1
    (Templates.histogram ~iters:16 ~buckets:8 ())

let test_port_gather () =
  check_port ~file:"gather.tk" ~scale:1
    (Templates.gather ~iters:12 ~span:16 ())

let test_port_mixed () =
  check_port ~file:"mixed.tk" ~scale:1 (Templates.mixed ~iters:10 ())

let test_port_matmul () =
  check_port ~file:"matmul.tk" ~scale:1 (Templates.matmul ~n:4 ())

let test_port_pointer_chase () =
  check_port ~file:"pointer_chase.tk" ~scale:1
    (Templates.pointer_chase ~nodes:16 ~iters:8 ())

let test_entry_of_file () =
  (match Tk.entry_of_file (example "triad.tk") with
  | Error e -> Alcotest.failf "entry_of_file: %s" e
  | Ok e ->
    Alcotest.(check string) "name" "triad" e.Suite.name;
    Alcotest.(check bool) "tag" true (e.Suite.suite = Suite.User);
    Alcotest.(check string) "qualified" "triad@tk" (Suite.qualified_name e);
    let stores, st = store_stream (e.Suite.build ~scale:1) in
    Alcotest.(check bool) "runs" true (st.Interp.halted && stores <> []));
  match Tk.entry_of_file "no/such/file.tk" with
  | Ok _ -> Alcotest.fail "entry_of_file accepted a missing file"
  | Error e ->
    Alcotest.(check bool) "I/O error mentions path" true
      (contains e "no/such/file.tk")

(* ------------------------------------------------------------------ *)
(* --pipeline spec resolution.                                        *)

let expect_spec_error ~opts spec frag =
  match PP.resolve_pipeline ~opts spec with
  | Ok ps ->
    Alcotest.failf "spec %S resolved to [%s]; expected error about %S" spec
      (String.concat "; " ps) frag
  | Error e ->
    if not (contains e frag) then
      Alcotest.failf "spec %S: diagnostic %S does not mention %S" spec e frag

let test_pipeline_resolve () =
  let opts = PP.turnpike_opts in
  (match PP.resolve_pipeline ~opts "default" with
  | Ok ps ->
    Alcotest.(check (list string)) "default = canonical" (PP.pass_names opts) ps
  | Error e -> Alcotest.failf "default: %s" e);
  (match PP.resolve_pipeline ~opts "-licm_sink,-scheduling" with
  | Ok ps ->
    Alcotest.(check (list string))
      "removals"
      (List.filter
         (fun p -> p <> "licm_sink" && p <> "scheduling")
         (PP.pass_names opts))
      ps
  | Error e -> Alcotest.failf "removals: %s" e);
  match
    PP.resolve_pipeline ~opts
      "regalloc,partition_and_checkpoint,region_metadata"
  with
  | Ok ps ->
    Alcotest.(check (list string))
      "explicit"
      [ "regalloc"; "partition_and_checkpoint"; "region_metadata" ]
      ps
  | Error e -> Alcotest.failf "explicit: %s" e

let test_pipeline_rejects () =
  let opts = PP.turnpike_opts in
  expect_spec_error ~opts "" "empty --pipeline spec";
  expect_spec_error ~opts "nope" "unknown pass `nope'";
  expect_spec_error ~opts "-nope" "unknown pass `-nope'";
  expect_spec_error ~opts "regalloc,regalloc" "listed twice";
  expect_spec_error ~opts "-regalloc" "mandatory";
  expect_spec_error ~opts "regalloc,region_metadata" "mandatory";
  expect_spec_error ~opts "default,-livm" "cannot mix";
  expect_spec_error ~opts "regalloc,-livm" "cannot mix";
  expect_spec_error ~opts
    "regalloc,livm,partition_and_checkpoint,region_metadata"
    "must run before";
  expect_spec_error ~opts:PP.baseline_opts "regalloc,livm"
    "disabled by the current options"

let test_pipeline_compile () =
  let prog = Templates.triad ~iters:4 () in
  let opts = PP.turnpike_opts in
  (* a vetted reduced pipeline compiles and still forms regions *)
  (match PP.resolve_pipeline ~opts "-licm_sink,-scheduling" with
  | Error e -> Alcotest.failf "resolve: %s" e
  | Ok pipeline ->
    let r = PP.compile ~opts ~pipeline prog in
    Alcotest.(check bool) "regions formed" true (Array.length r.PP.regions > 0));
  (* an unvetted list raises the same diagnostic resolve would return *)
  match
    PP.compile ~opts
      ~pipeline:
        [ "regalloc"; "livm"; "partition_and_checkpoint"; "region_metadata" ]
      prog
  with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "diagnostic carried" true
      (contains msg "must run before")
  | _ -> Alcotest.fail "compile accepted an unsound pipeline"

(* ------------------------------------------------------------------ *)
(* Fuzz: generated programs round-trip; mangled ones never raise.     *)

let test_fuzz_roundtrip () =
  for seed = 0 to 39 do
    let src = Fuzz.generate ~seed in
    Alcotest.(check string)
      "generator is deterministic" src
      (Fuzz.generate ~seed);
    match Tk.compile_string ~file:(Printf.sprintf "<fuzz-%d>" seed) ~scale:1 src with
    | Error e -> Alcotest.failf "seed %d rejected: %s\n%s" seed e src
    | Ok prog ->
      let st = Interp.run ~fuel:2_000_000 prog in
      if not st.Interp.halted then
        Alcotest.failf "seed %d did not run to completion" seed;
      let r = PP.compile ~opts:PP.turnpike_opts ~check:PP.Final prog in
      (* lint clean = nothing above Info severity *)
      (match
         List.filter
           (fun d -> d.Turnpike_analysis.Diag.severity <> Turnpike_analysis.Diag.Info)
           r.PP.diags
       with
      | [] -> ()
      | ds ->
        Alcotest.failf "seed %d lints dirty:\n%s\n%s" seed
          (String.concat "\n"
             (List.map Turnpike_analysis.Diag.to_string ds))
          src)
  done

let test_fuzz_mutations_never_raise () =
  for seed = 0 to 19 do
    let src = Fuzz.generate ~seed in
    let n = String.length src in
    let variants =
      [
        String.sub src 0 (n / 3);
        String.sub src 0 (2 * n / 3);
        String.sub src 0 (n - 2);
        src ^ "}";
        src ^ " kernel";
        "@" ^ src;
        String.map (fun c -> if c = '{' then '(' else c) src;
        String.map (fun c -> if c = ';' then ':' else c) src;
      ]
    in
    List.iteri
      (fun k s ->
        match Tk.parse_string ~file:"<mutant>" s with
        | Ok _ -> ()
        | Error err ->
          (* located, renderable error — never an exception *)
          if err.Srcloc.loc.Srcloc.start_p.Srcloc.line < 1 then
            Alcotest.failf "seed %d variant %d: unlocated error" seed k
        | exception e ->
          Alcotest.failf "seed %d variant %d: parser raised %s" seed k
            (Printexc.to_string e))
      variants
  done

let tests =
  [
    Alcotest.test_case "lexer diagnostics" `Quick test_lexer_diagnostics;
    Alcotest.test_case "parser diagnostics" `Quick test_parser_diagnostics;
    Alcotest.test_case "typecheck diagnostics" `Quick test_typecheck_diagnostics;
    Alcotest.test_case "arithmetic semantics" `Quick test_semantics;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "scale and inputs" `Quick test_scale_and_inputs;
    Alcotest.test_case "port: triad" `Quick test_port_triad;
    Alcotest.test_case "port: stencil" `Quick test_port_stencil;
    Alcotest.test_case "port: histogram" `Quick test_port_histogram;
    Alcotest.test_case "port: gather" `Quick test_port_gather;
    Alcotest.test_case "port: mixed" `Quick test_port_mixed;
    Alcotest.test_case "port: matmul" `Quick test_port_matmul;
    Alcotest.test_case "port: pointer_chase" `Quick test_port_pointer_chase;
    Alcotest.test_case "suite entry from .tk" `Quick test_entry_of_file;
    Alcotest.test_case "pipeline: resolve" `Quick test_pipeline_resolve;
    Alcotest.test_case "pipeline: rejects" `Quick test_pipeline_rejects;
    Alcotest.test_case "pipeline: compile" `Quick test_pipeline_compile;
    Alcotest.test_case "fuzz round trip" `Quick test_fuzz_roundtrip;
    Alcotest.test_case "fuzz mutations" `Quick test_fuzz_mutations_never_raise;
  ]
