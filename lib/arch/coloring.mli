(** Hardware coloring (paper §4.3.2).

    A pool of {!Turnpike_ir.Layout.colors} alternative checkpoint storage
    locations per architectural register lets checkpoint stores be released
    to cache {e without} verification: the previously verified checkpoint
    value is never overwritten. Three logical maps per register —
    Available colors, Used colors (per un-verified region) and the
    Verified color — implemented as one small state machine per
    (register, color). *)

type t

val create : ?colors:int -> nregs:int -> unit -> t
(** Create a pool of [colors] (default {!Turnpike_ir.Layout.colors})
    alternative storage locations per register. The timing model varies
    [colors] to explore the color-bits design axis; the functional
    recovery executor always uses the default, whose slots exist in the
    checkpoint memory layout.
    @raise Invalid_argument on a non-positive register or color count. *)

val copy : t -> t
(** Deep copy: mutating either the original or the copy afterwards leaves
    the other untouched. Used by executor snapshotting. *)

val try_assign : t -> reg:int -> region:int -> int option
(** Take a free color for a checkpoint of [reg] committed by dynamic
    [region]. [None] (fallback to store-buffer quarantine) when the pool
    for that register is exhausted or [reg] is out of range. *)

val on_region_verified : t -> region:int -> unit
(** Region verified: its colorings take effect in the order they were
    assigned. Each color becomes its register's verified color, and the
    color verified before it returns to the pool. A register the region
    colored more than once thus ends with its last coloring verified — the
    newest checkpoint, the one recovery reads — and its earlier colors back
    in the pool. *)

val verified_color : t -> reg:int -> int option
(** Color holding the most recently verified checkpoint of [reg] — where
    recovery reads the register from. *)

val used_color : t -> reg:int -> region:int -> int option

val free_color : t -> reg:int -> int option
(** A currently free color for [reg], if any. *)

val force_verified : t -> reg:int -> color:int -> unit
(** A quarantined (fallback) checkpoint drained into [color] at its
    region's verification: that slot becomes the verified storage; any
    other verified color returns to the pool. *)

val discard_unverified : t -> regions:int list -> unit
(** Error recovery: colors held by discarded (re-executed) regions return
    to the pool. *)

val fast_assigned : t -> int
(** Checkpoints that took the fast path (got a color). *)

val fallbacks : t -> int
(** Checkpoints that fell back to store-buffer quarantine. *)
