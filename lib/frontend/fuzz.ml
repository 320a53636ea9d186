(* Seeded generator of random well-formed .tk programs. Determinism
   comes from Data_gen.mix (a splitmix-style hash of seed and a
   monotonically increasing draw counter), so the same seed always
   produces the same text. *)

module Data_gen = Turnpike_workloads.Data_gen

(* Upper bound on any generated loop's trip count. *)
let max_trip = 16

type gen = {
  seed : int;
  counter : int ref;
  buf : Buffer.t;
  mutable indent : int;
  (* names in scope, by kind *)
  mutable vars : string list;  (* assignable scalars *)
  mutable ro : string list;  (* consts and inputs: read-only scalars *)
  mutable arrays : (string * int) list;  (* name, power-of-two length *)
}

let draw g bound =
  let n = !(g.counter) in
  g.counter := n + 1;
  Data_gen.mix g.seed n mod bound

let choose g l = List.nth l (draw g (List.length l))

let line g fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string g.buf (String.make (2 * g.indent) ' ');
      Buffer.add_string g.buf s;
      Buffer.add_char g.buf '\n')
    fmt

(* --- expressions -------------------------------------------------- *)

let arith_ops = [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^" ]
let cmp_ops = [ "=="; "!="; "<"; "<="; ">"; ">=" ]

(* A random integer expression of bounded depth over the scalars in
   scope and masked array reads. *)
let rec expr g depth =
  let leaves = ("lit" :: List.map (fun _ -> "var") g.vars)
    @ List.map (fun _ -> "ro") g.ro
  in
  let kinds =
    if depth <= 0 then leaves
    else leaves @ [ "bin"; "bin"; "bin"; "neg"; "idx"; "shift" ]
  in
  match choose g kinds with
  | "var" -> choose g g.vars
  | "ro" -> choose g g.ro
  | "bin" ->
    Printf.sprintf "(%s %s %s)" (expr g (depth - 1)) (choose g arith_ops)
      (expr g (depth - 1))
  | "shift" ->
    (* keep shift counts small so values stay readable *)
    Printf.sprintf "(%s %s %d)" (expr g (depth - 1))
      (choose g [ "<<"; ">>" ])
      (draw g 8)
  | "neg" -> Printf.sprintf "(-%s)" (expr g (depth - 1))
  | "idx" when g.arrays <> [] ->
    let name, len = choose g g.arrays in
    Printf.sprintf "%s[(%s) & %d]" name (expr g (depth - 1)) (len - 1)
  | _ -> string_of_int (draw g 1024)

let cond g depth =
  Printf.sprintf "%s %s %s" (expr g depth) (choose g cmp_ops) (expr g depth)

(* --- statements --------------------------------------------------- *)

let assign_stmt g =
  if g.arrays <> [] && draw g 3 = 0 then begin
    let name, len = choose g g.arrays in
    line g "%s[(%s) & %d] = %s;" name (expr g 1) (len - 1) (expr g 2)
  end
  else if g.vars <> [] then
    line g "%s = %s;" (choose g g.vars) (expr g 2)
  else
    let name, len = choose g g.arrays in
    line g "%s[(%s) & %d] = %s;" name (expr g 1) (len - 1) (expr g 2)

let rec stmts g ~loop_depth ~budget =
  for _ = 1 to budget do
    match draw g 6 with
    | 0 when loop_depth < 2 -> for_loop g ~loop_depth
    | 1 ->
      line g "if (%s) {" (cond g 1);
      g.indent <- g.indent + 1;
      assign_stmt g;
      g.indent <- g.indent - 1;
      if draw g 2 = 0 then begin
        line g "} else {";
        g.indent <- g.indent + 1;
        assign_stmt g;
        g.indent <- g.indent - 1
      end;
      line g "}"
    | 2 when loop_depth = 0 ->
      (* fresh scratch variable (unique by draw counter) *)
      let name = Printf.sprintf "t%d" !(g.counter) in
      line g "var %s = %s;" name (expr g 2);
      g.vars <- name :: g.vars
    | _ -> assign_stmt g
  done

and for_loop g ~loop_depth =
  let iv = Printf.sprintf "i%d" !(g.counter) in
  let trip = 1 + draw g max_trip in
  line g "for (var %s = 0; %s < %d; %s = %s + 1) {" iv iv trip iv iv;
  g.indent <- g.indent + 1;
  (* The counter is readable in the body but never reassigned: it is
     not added to [vars] (assignment targets), only to [ro]. *)
  g.ro <- iv :: g.ro;
  stmts g ~loop_depth:(loop_depth + 1) ~budget:(1 + draw g 3);
  g.ro <- List.tl g.ro;
  g.indent <- g.indent - 1;
  line g "}"

let generate ~seed =
  let g =
    {
      seed;
      counter = ref 0;
      buf = Buffer.create 512;
      indent = 1;
      vars = [];
      ro = [];
      arrays = [];
    }
  in
  Buffer.add_string g.buf (Printf.sprintf "kernel fuzz%d {\n" (abs seed));
  (* declarations: 1-2 consts, 0-1 inputs, 2-3 vars, 1-3 arrays *)
  for c = 0 to draw g 2 do
    let name = Printf.sprintf "c%d" c in
    line g "const %s = %d;" name (1 + draw g 255);
    g.ro <- name :: g.ro
  done;
  if draw g 2 = 0 then begin
    line g "input src = %d;" (draw g 65536);
    g.ro <- "src" :: g.ro
  end;
  for v = 0 to 1 + draw g 2 do
    let name = Printf.sprintf "v%d" v in
    line g "var %s = %d;" name (draw g 1024);
    g.vars <- name :: g.vars
  done;
  for a = 0 to draw g 3 do
    let name = Printf.sprintf "a%d" a in
    let len = 8 lsl draw g 4 in
    let init =
      match draw g 4 with
      | 0 -> ""
      | 1 -> Printf.sprintf " = %d" (draw g 256)
      | 2 -> Printf.sprintf " = small(%d)" (draw g 1000)
      | _ -> Printf.sprintf " = rand(%d, %d)" (draw g 1000) (1 + draw g 4096)
    in
    line g "array %s[%d]%s;" name len init;
    g.arrays <- (name, len) :: g.arrays
  done;
  (* body: top-level statements, at least one loop and one store *)
  for_loop g ~loop_depth:0;
  stmts g ~loop_depth:0 ~budget:(2 + draw g 4);
  (* guaranteed store: the observable tail every program ends with *)
  let name, len = choose g g.arrays in
  line g "%s[(%s) & %d] = %s;" name (expr g 1) (len - 1) (expr g 2);
  Buffer.add_string g.buf "}\n";
  Buffer.contents g.buf
