(** Word memory of the interpreter: paged per {!Layout} segment, forked
    by copy-on-write.

    Each segment (data, spill, checkpoint) holds a table of 256-word
    slots indexed from its base; a slot points at a node of eight 32-word
    pages, so an aligned load or store there is a slot-table read, a node
    read and a page read. Every other address (unaligned, negative, below
    the data segment or far past a segment's slots) lives in a small
    sparse map with the same semantics. Absent words read 0 everywhere.

    {!fork} shares every node and page instead of copying it. The first
    write to a shared page copies that 32-word page, and its node when the
    node is shared too. A memory that is never written after it is forked
    — a snapshot, a pilot's final state — never writes to its nodes, its
    pages or its own fields again, so any number of domains can read and
    fork it at once. *)

type t

val create : unit -> t
(** An empty memory: every address reads 0. *)

val get : t -> int -> int
(** The word at an address; absent words read 0. *)

val set : t -> int -> int -> unit

val fork : t -> t
(** A memory with the same contents that shares every node and page with
    the argument, in time proportional to the number of slots. Afterwards
    neither memory writes a shared node or page in place: each copies a
    page, and its node when that is shared, on its first write to it. The
    argument gives up ownership of its nodes and pages, so forking it
    again, and forking the fork, writes to neither. *)

val first_diff : ?lo:int -> ?hi:int -> t -> t -> int option
(** The lowest address in [\[lo, hi)] (default: every address) at which
    the two memories read differently, absent words reading 0. Nodes and
    pages the two memories share are skipped without being read, so
    comparing a fork with its origin costs only the pages either side
    wrote since. *)

val bindings : t -> (int * int) list
(** Every word that reads non-zero, in address order. *)
