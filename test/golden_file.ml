(* Committed test data under test/golden and test/regress. Both are
   declared as test deps (copied next to the executable by dune); resolve
   them relative to the binary so `dune exec test/test_main.exe` from the
   repo root finds them too. *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let find_dir name =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) name;
      name; Filename.concat "test" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> name

let dir = find_dir "golden"

let path name = Filename.concat dir name

(* A keyed golden holds one "KEY VALUE" line per entry (the value runs to
   the end of the line). Every computed (key, value) must equal its line
   and the file must hold no other entries; a mismatch names its key, so
   a failure says which kernel moved. *)
let check_keyed ~file ~what got =
  let expected =
    String.split_on_char '\n' (read (path file))
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.index_opt l ' ' with
           | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
           | None -> Alcotest.failf "%s: malformed golden line %S" file l)
  in
  List.iter
    (fun (key, value) ->
      match List.assoc_opt key expected with
      | Some v when v = value -> ()
      | Some _ -> Alcotest.failf "%s: %s differ from the golden (now %s)" key what value
      | None -> Alcotest.failf "%s: no golden line (now %s)" key value)
    got;
  Alcotest.(check int) (file ^ ": one golden line per entry") (List.length expected)
    (List.length got)
