(** Word memory of the interpreter: paged per {!Layout} segment, forked
    by copy-on-write.

    Each segment (data, spill, checkpoint) holds word pages indexed from
    its base, so an aligned load or store there is a page-table read and a
    page read. Every other address (unaligned, negative, below the data
    segment or far past a segment's pages) lives in a small sparse map
    with the same semantics. Absent words read 0 everywhere.

    {!fork} shares every page instead of copying it; the first write to a
    shared page copies that page. A memory that is never written after it
    is forked — a snapshot, a pilot's final state — never writes to its
    pages or its own fields again, so any number of domains can read and
    fork it at once. *)

type t

val create : unit -> t
(** An empty memory: every address reads 0. *)

val get : t -> int -> int
(** The word at an address; absent words read 0. *)

val set : t -> int -> int -> unit

val fork : t -> t
(** A memory with the same contents that shares every page with the
    argument, in time proportional to the number of pages. Afterwards
    neither memory writes a shared page in place: each copies a page on
    its first write to it. The argument gives up ownership of its pages,
    so forking it again, and forking the fork, writes to neither. *)

val first_diff : ?lo:int -> ?hi:int -> t -> t -> int option
(** The lowest address in [\[lo, hi)] (default: every address) at which
    the two memories read differently, absent words reading 0. Pages the
    two memories share are skipped without being read, so comparing a
    fork with its origin costs only the pages either side wrote since. *)

val bindings : t -> (int * int) list
(** Every word that reads non-zero, in address order. *)
