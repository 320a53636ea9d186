(* Per-register ready cycles, shared by both timing models and read on
   every source operand: a dense array indexed by register id. Ids are
   small non-negative ints (architectural registers sit below
   [Reg.virt_base]); the array doubles the first time a larger id is
   written. *)

type t = { mutable cycles : int array }

let create () = { cycles = Array.make 64 0 }

let get t r = if r < Array.length t.cycles then t.cycles.(r) else 0

let rec latest_from t acc = function
  | [] -> acc
  | r :: rest -> latest_from t (Int.max acc (get t r)) rest

let latest t srcs = latest_from t 0 srcs

(* Compares with [Reg.zero] rather than calling [Reg.is_zero]: this runs
   on every simulated register write, and a call into another library is
   not inlined when it is built with [-opaque] (dune's dev profile). *)
let set t r c =
  if r <> Turnpike_ir.Reg.zero then begin
    let n = Array.length t.cycles in
    if r >= n then begin
      let grown = Array.make (Int.max (r + 1) (2 * n)) 0 in
      Array.blit t.cycles 0 grown 0 n;
      t.cycles <- grown
    end;
    t.cycles.(r) <- c
  end
