(** Fast release (paper §4.3): every decision a Turnpike core makes on its
    committed load queue ({!Clq}, §4.3.1) and its checkpoint color maps
    ({!Coloring}, §4.3.2).

    The timing model ({!Timing}) and the recovery executor
    ([Turnpike_resilience.Recovery]) both decide here. Each keeps what is
    its own: the region numbering ([~region], a dynamic region's sequence
    number, and [~unverified], how many regions have not verified), the
    same-address check against buffered stores that a WAR-free verdict
    still needs, and its store buffer or undo logs. The timing model
    counts regions in cycles (the RBB verifies a region WCDL cycles after
    it ends), the executor in interpreter steps.

    A core with neither a CLQ nor color maps has no fast-release unit
    ({!create} returns [None]), and its models make no call here. *)

type t

val create :
  clq:Clq.design option -> coloring:bool -> colors:int -> nregs:int -> t option
(** The unit of a core with the given CLQ design and, when [coloring],
    [colors] checkpoint colors for each of [nregs] registers; [None] when
    it has neither.
    @raise Invalid_argument as {!Clq.create} and {!Coloring.create} do. *)

val copy : t -> t
(** Deep copy, for executor snapshots. *)

val record_load : t -> region:int -> int -> bool
(** A committed load of [region] records its address in the CLQ. [true]
    exactly when the record overflowed the CLQ and fast release turned
    off (Fig 13), the instant the timing model stamps on its timeline;
    [false] on a core without a CLQ. *)

val war_free : t -> region:int -> int -> bool
(** May a regular store of [region] to this address skip verification?
    The CLQ's WAR-free verdict; [false] while fast release is off or on a
    core without a CLQ. The caller still quarantines the store when an
    older buffered store has the same address. *)

val color : t -> reg:int -> region:int -> int option
(** The color a checkpoint of physical register [reg] by [region] is
    released into, without verification; [None] (quarantine it) when the
    register's colors are all taken or the core has no color maps. *)

val verify : t -> region:int -> unverified:int -> unit
(** [region] verified, [unverified] regions remain: its colorings take
    effect in the order they were assigned, its CLQ entry clears, and
    fast release turns back on if the Fig-13 automaton allows it. *)

val enable_at_boundary : t -> unverified:int -> unit
(** A region boundary with [unverified] regions not yet verified: fast
    release turns back on after an overflow once at most the region just
    closed is unverified (Fig 13). *)

val discard : t -> regions:int list -> unit
(** Error recovery re-executes [regions]: their colors return to the pool
    and their CLQ entries clear. *)

(** {2 Fallback checkpoints}

    A checkpoint that got no color is quarantined and drains at its
    region's verification, after {!verify}. The two models do not yet
    agree on where it drains:
    - the timing model drains it through the store buffer into the
      register's base slot and leaves the color maps as they are;
    - the executor drains it with {!drain_color}. *)

val drain_color : t -> reg:int -> int
(** The executor's rule: the color a verified fallback checkpoint of
    [reg] drains into — a free color if there is one, else the verified
    one, else 0 — which becomes the register's verified color. 0, with
    nothing changed, on a core without color maps. *)

(** {2 Statistics (timing model)} *)

val sample : t -> unit
(** Record the CLQ entries in use at a region boundary (Fig 24). *)

val clq_entries : t -> int
(** CLQ entries in use now; 0 without a CLQ. *)

val record_stats : t -> Sim_stats.t -> unit
(** Write the CLQ and coloring counters into [stats]. *)
