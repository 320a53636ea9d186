type t = {
  func : Func.t;
  mem_init : (int * int) list;
  reg_init : (Reg.t * int) list;
}

let create ?(mem_init = []) ?(reg_init = []) func = { func; mem_init; reg_init }

let with_func t func = { t with func }

let validate t =
  let errs = Func.validate t.func in
  let errs =
    List.fold_left
      (fun acc (a, _) ->
        if a mod Layout.word <> 0 then
          Printf.sprintf "mem_init address %#x not word aligned" a :: acc
        else acc)
      errs t.mem_init
  in
  let errs =
    List.fold_left
      (fun acc (r, _) ->
        if Reg.is_zero r then "reg_init writes the zero register" :: acc else acc)
      errs t.reg_init
  in
  errs
