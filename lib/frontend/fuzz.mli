(** Seeded generator of random well-formed [.tk] programs.

    Used by the frontend fuzz tests: every generated program must
    parse, typecheck, lower, and run to completion through the default
    pass pipeline with a clean lint. Generated programs are constructed
    to be safe by design:
    - loops are C-style [for] loops with literal bounds (at most
      {!val:max_trip} iterations, nesting depth at most 2) whose
      counters are never reassigned in the body, so termination is
      structural;
    - array dimensions are powers of two and every dynamically-indexed
      access masks with [& (dim-1)], so addresses stay in bounds;
    - division/remainder/shift are safe for any operand values (the
      language defines [/ 0] and [% 0] as 0 and masks shift counts).

    The same [seed] always yields the same program text. *)

val generate : seed:int -> string
(** [generate ~seed] returns the text of one random [.tk] program. *)
