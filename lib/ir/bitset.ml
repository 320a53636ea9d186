(* Flat int-array bitsets, 62 usable bits per word (shifts stay clear of
   the OCaml int sign bit on every platform). *)

type t = int array

let bits_per_word = 62

let create ~max_id = Array.make ((max_id + bits_per_word + 1) / bits_per_word) 0

(* Out-of-universe ids read as absent: checks probe sets with ids taken
   from claims and recovery expressions, which hand-built (adversarial)
   IR can point anywhere. *)
let mem bs r =
  let w = r / bits_per_word in
  w < Array.length bs && bs.(w) land (1 lsl (r mod bits_per_word)) <> 0

let add bs r =
  bs.(r / bits_per_word) <- bs.(r / bits_per_word) lor (1 lsl (r mod bits_per_word))

let remove bs r =
  bs.(r / bits_per_word) <-
    bs.(r / bits_per_word) land lnot (1 lsl (r mod bits_per_word))

let copy = Array.copy

let equal (a : t) (b : t) = a = b

let union_into ~dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let inter_into ~dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) land src.(w)
  done

let transfer ~gen ~kill src =
  let out = Array.make (Array.length src) 0 in
  for w = 0 to Array.length src - 1 do
    out.(w) <- src.(w) land lnot kill.(w) lor gen.(w)
  done;
  out

(* The in-place form for fixpoints that keep one set per block: no
   allocation per visit, and the answer says whether [dst] moved. *)
let transfer_into ~dst ~gen ~kill src =
  let changed = ref false in
  for w = 0 to Array.length dst - 1 do
    let v = src.(w) land lnot kill.(w) lor gen.(w) in
    if v <> dst.(w) then begin
      dst.(w) <- v;
      changed := true
    end
  done;
  !changed

let iter f bs =
  for w = 0 to Array.length bs - 1 do
    (* shift the word down, so the scan stops at its highest member *)
    let word = ref bs.(w) and id = ref (w * bits_per_word) in
    while !word <> 0 do
      if !word land 1 <> 0 then f !id;
      word := !word lsr 1;
      incr id
    done
  done

