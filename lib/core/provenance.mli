(** Why-provenance tag store: one derivation tag per derived tuple.

    A tag records {e where} a tuple first materialized — stratum, fixpoint
    iteration and a monotone sequence number — keyed by the tuple's content,
    not by physical row ids, so the store is shared verbatim by every
    evaluation path (interpreted plans, compiled kernels, the PBME
    bit-matrix solve, IVM maintenance): whichever path absorbs a tuple into
    its relation records the same tag at the same point, which makes a
    half-tagged relation structurally impossible and keeps evaluation
    results byte-identical with recording on or off (tags live beside the
    relations, never inside them).

    The full (rule id + premise rows) derivation is {e not} stored per
    tuple — that would force per-rule evaluation and break the unified-IDB
    query shape the paper's interpreter depends on. Instead {!Explain}
    reconstructs rule and premises on demand by matching rule bodies
    against the final database; the tags supply the when/where half of the
    answer (and, under sampling, the knob that keeps recording cheap
    enough to leave on in production).

    Sampling is deterministic by tuple content: the same (pred, row) is
    kept or skipped identically across runs, paths and retry-ladder rungs,
    so a mid-run re-attempt can never produce a relation whose tag coverage
    disagrees with a clean run at the same sampling rate. *)

type tag = {
  t_stratum : int;  (** stratum that derived the tuple *)
  t_iteration : int;  (** fixpoint iteration within the stratum (0 = base) *)
  t_seq : int;  (** global absorption order within this store's lifetime *)
}

type t

val create : ?sample:float -> unit -> t
(** [sample] ∈ [0, 1]: fraction of tuples to tag, deterministic by tuple
    content. Default 1.0 (tag everything). *)

val sample : t -> float

val sampled : t -> pred:string -> int list -> bool
(** Whether this (pred, row) falls inside the sampling set — true for every
    tuple when [sample] is 1.0. Pure: depends only on the content and the
    store's sampling rate. *)

val record : t -> pred:string -> stratum:int -> iteration:int -> int list -> unit
(** Tag one tuple. First write wins (a re-derivation in a later iteration
    keeps the original tag); sampled-out tuples are counted but not
    stored. Every tuple of one [pred] must have the same arity. *)

val reserve : t -> pred:string -> arity:int -> int -> unit
(** Make room for [n] more tuples of [pred] at once. A caller that knows a
    batch's size before tagging it row by row (IVM seeding a view) then
    allocates the table once instead of growing it. *)

val record_relation :
  t ->
  pred:string ->
  stratum:int ->
  iteration:int ->
  ?lo:int ->
  ?hi:int ->
  Rs_relation.Relation.t ->
  unit
(** [record] for rows [\[lo, hi)] of a relation (default: every row), read
    column by column: the absorption points hand their Δ's row range
    here, so no row is boxed. *)

val retract : t -> pred:string -> int list -> unit
(** Drop the tag of a tuple that left its relation (IVM retraction). *)

val find : t -> pred:string -> int list -> tag option

val tagged : t -> pred:string -> int
(** Number of tuples currently tagged for [pred]. *)

val recorded : t -> int
(** Total tuples tagged over the store's lifetime (monotone). *)

val skipped : t -> int
(** Tuples offered but sampled out (monotone). *)
