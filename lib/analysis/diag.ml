(* Diagnostics for the static-analysis registry. Everything here must be
   deterministic: lint output is compared byte-for-byte across job counts,
   so ordering never depends on hash-table iteration. *)

type severity = Info | Warn | Error [@@deriving show { with_path = false }, eq, ord]

type t = {
  check : string;
  severity : severity;
  func : string;
  block : string option;
  instr : int option;
  pass : string option;
  message : string;
}
[@@deriving show { with_path = false }, eq]

let make ~check ~severity ~func ?block ?instr ?pass message =
  { check; severity; func; block; instr; pass; message }

let severity_to_string = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let error_count ds =
  List.length (List.filter (fun d -> d.severity = Error) ds)

let compare_opt cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare_diag a b =
  let c = String.compare a.func b.func in
  if c <> 0 then c
  else
    let c = compare_opt String.compare a.block b.block in
    if c <> 0 then c
    else
      let c = compare_opt Int.compare a.instr b.instr in
      if c <> 0 then c
      else
        let c = String.compare a.check b.check in
        if c <> 0 then c
        else
          let c = compare_severity b.severity a.severity in
          if c <> 0 then c
          else
            let c = String.compare a.message b.message in
            if c <> 0 then c else compare_opt String.compare a.pass b.pass

let sort ds = List.sort_uniq compare_diag ds

let with_pass pass d = { d with pass }

let key d =
  Printf.sprintf "%s|%s|%s|%s|%s|%s" d.check
    (severity_to_string d.severity)
    d.func
    (Option.value d.block ~default:"")
    (match d.instr with Some i -> string_of_int i | None -> "")
    d.message

let to_string d =
  let loc =
    match (d.block, d.instr) with
    | Some b, Some i -> Printf.sprintf "%s:%s:%d" d.func b i
    | Some b, None -> Printf.sprintf "%s:%s" d.func b
    | None, _ -> d.func
  in
  let prov = match d.pass with Some p -> Printf.sprintf " (after %s)" p | None -> "" in
  Printf.sprintf "%-5s %-14s %s%s: %s" (severity_to_string d.severity) d.check loc prov d.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let opt_str = function
    | Some s -> Printf.sprintf "\"%s\"" (json_escape s)
    | None -> "null"
  in
  let opt_int = function Some i -> string_of_int i | None -> "null" in
  Printf.sprintf
    "{\"check\":\"%s\",\"severity\":\"%s\",\"func\":\"%s\",\"block\":%s,\"instr\":%s,\"pass\":%s,\"message\":\"%s\"}"
    (json_escape d.check)
    (severity_to_string d.severity)
    (json_escape d.func) (opt_str d.block) (opt_int d.instr) (opt_str d.pass)
    (json_escape d.message)
