(* Table formatting and aggregation helpers shared by the experiment
   drivers and the bench harness. *)

let geomean = function
  | [] -> 0.0
  | xs ->
    let n = List.length xs in
    let s = List.fold_left (fun acc x -> acc +. log (max x 1e-12)) 0.0 xs in
    exp (s /. float_of_int n)

let arith_mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fmt_overhead x = Printf.sprintf "%.3f" x

let fmt_pct x = Printf.sprintf "%.2f%%" x

(* ------------------------------------------------------------------ *)
(* A table is one list of typed columns: each renders its cell as text
   for the printed table and as a CSV field for Csv_export. *)

type 'row cell =
  | Str of ('row -> string)
  | Int of ('row -> int)
  | Float of (float -> string) * ('row -> float)

type 'row column = { title : string; width : int; csv : string; cell : 'row cell }

let column ?csv title width cell =
  { title; width; csv = Option.value csv ~default:title; cell }

let str ?csv title width get = column ?csv title width (Str get)
let int ?csv title width get = column ?csv title width (Int get)

let float ?csv ?(fmt = fmt_overhead) title width get =
  column ?csv title width (Float (fmt, get))

(* One column per key any row carries, in first-appearance order; a row
   without the key reads nan, so a later row missing a scheme or a WCDL
   keeps the table whole. *)
let keyed lead cells col rows =
  if rows = [] then []
  else
    let keys =
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
            acc (cells r))
        [] rows
    in
    lead
    @ List.map
        (fun k ->
          col k (fun r -> Option.value (List.assoc_opt k (cells r)) ~default:Float.nan))
        keys

let render ~csv c r =
  match c.cell with
  | Str get -> get r
  | Int get -> string_of_int (get r)
  | Float (fmt, get) -> if csv then Printf.sprintf "%.6f" (get r) else fmt (get r)

let print_table cols rows =
  let line cells =
    String.concat " | "
      (List.map2 (fun c s -> Printf.sprintf "%-*s" c.width s) cols cells)
  in
  let header = line (List.map (fun c -> c.title) cols) in
  print_endline header;
  print_endline (String.make (String.length header) '-');
  List.iter
    (fun r -> print_endline (line (List.map (fun c -> render ~csv:false c r) cols)))
    rows

let csv_lines cols rows =
  List.map (fun c -> c.csv) cols
  :: List.map (fun r -> List.map (fun c -> render ~csv:true c r) cols) rows

let section title =
  print_newline ();
  print_endline (String.make (String.length title + 4) '=');
  Printf.printf "= %s =\n" title;
  print_endline (String.make (String.length title + 4) '=')

let subsection title =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '-')
