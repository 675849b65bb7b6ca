(** Tuple-set structures for deduplication (the paper's FAST-DEDUP).

    The paper's dedup table stores Compact Concatenated Keys: the whole
    tuple packed into one machine word that serves as key, value and hash
    at once (§5.1). We provide:

    - {!Fast}: one open-addressing (linear-probing) table. Tuples of arity
      <= 2 are packed with {!Rs_util.Int_key.pack2} while every attribute
      stays in [0, 2^31), and the compact key sits in the slot itself, so a
      claim reads one slot per probe step. The first out-of-range pair
      (e.g. a negative constant from a parsed program) migrates the table
      to the wider layout that arity > 2 tuples always use: tuples in a
      flattened arena, slots holding entry ids and cached combined hashes —
      still pointer-free. Capacity is a power of two at least twice
      [expected], and the table doubles at load > 1/2.
    - {!Boxed}: the "un-specialized" baseline used for the FAST-DEDUP-off
      ablation — a stdlib [Hashtbl] keyed by boxed [int array] tuples, which
      costs extra allocation, hashing and per-entry overhead.

    This module is FAST-DEDUP's implementation. The paper's
    separate-chaining, latch-free layout (Figure 5) is not reproduced: the
    worker pool is simulated and runs its chunks one after another, so no
    figure measures a concurrent table.

    Memory is accounted to {!Rs_storage.Memtrack} (real array sizes for
    {!Fast}; a per-entry estimate of the GC-heap footprint for {!Boxed}).

    The same {!Fast} table is also the engine's only answer to "is this
    tuple in R?": {!create_set} makes a {e membership set}, which the
    executor's index manager fills from a relation's rows ({!add_rows}) and
    the set differences and anti-joins probe ({!mem2},
    {!mem_row}). The compiled kernels write a head table's set themselves,
    with one two-table claim per emitted tuple ({!claim2}): the dedup
    table's claim first, then, when fresh, the set's.

    Fault injection: the {!Fast} insert paths of a dedup table probe
    {!Rs_chaos.Inject.dedup_drops} (silent per-key derivation loss — the
    corruption the differential fuzzer must catch) and table creation
    ([dedup.create]) and growth ([dedup.rehash]) probe
    {!Rs_chaos.Inject.dedup_should_fail}. Both are no-ops unless a chaos
    plan is armed in scope; {!Boxed} and membership sets are unaffected. *)

type mode = Fast | Boxed

type t

val create : ?expected:int -> mode -> int -> t
(** [create mode arity] makes an empty set. [expected] is a sizing hint
    that pre-sizes the slot array, mirroring the paper's pre-allocation
    from the optimizer's estimate. It is clamped to a ceiling of 2^14
    entries (at most 2^15 {!Fast} slots, 2^14 {!Boxed} buckets), so an
    overshooting estimate cannot allocate a table many times the size of
    what it will hold; a table that fills past the ceiling grows by
    doubling. *)

val create_set : ?expected:int -> int -> t
(** [create_set arity] makes an empty membership set in the {!Fast}
    layout, whatever the [fast_dedup] toggle says. It probes no fault point
    and never drops a key: its owner (the index manager) probes
    {!Rs_chaos.Inject.index_should_fail} before it writes. *)

val arity : t -> int

val add2 : t -> int -> int -> bool
(** [add2 t x y] inserts the pair; [true] iff it was new. Arity must be 2. *)

val add_row : t -> int array -> bool

val add1 : t -> int -> bool

val mem_row : t -> int array -> bool

val mem2 : t -> int -> int -> bool
(** {!mem_row} for arity 2, without a tuple array. *)

val add_rows : t -> Relation.t -> int array -> int -> int -> unit
(** [add_rows t r cols lo hi] inserts rows [\[lo, hi)] of [r], each
    projected on [cols] (whose length must be [arity t]). The signature of
    a {!Rs_parallel.Pool.parallel_for} chunk. *)

type claim =
  | Repeat  (** the dedup table already held the tuple *)
  | Known  (** claimed fresh in the dedup table; the set already held it *)
  | Added  (** claimed fresh in the dedup table and added to the set *)

val claim2 : t -> set:t -> int -> int -> claim
(** [claim2 t ~set x y] claims the pair in the dedup table [t] and, when
    that claim is fresh, claims it in the membership set [set] too — the
    compiled kernels' emit, which keeps the head table's set current while
    it deduplicates. When both tables hold packed keys the pair is packed
    and hashed once for both probe sequences; when both are wide one tuple
    hash is computed and cached in both. A pair outside the packed range
    migrates whichever side is still packed; any other mix of layouts (a
    {!Boxed} table) claims in each table separately. [t] keeps its fault
    points ({!add2}'s drop decision included: a dropped key never reaches
    [set]); [set] must be a {!create_set} table. Arity must be 2. *)

val claim1 : t -> set:t -> int -> claim
(** {!claim2} for arity 1. *)

val claim_row : t -> set:t -> int array -> claim
(** {!claim2} for any arity; arity > 2 tables are always wide. *)

val cardinal : t -> int

val bytes : t -> int

val account : t -> unit
(** Reconcile with the memory tracker (may raise [Simulated_oom]). *)

val release : t -> unit

val dedup_relation_parallel :
  ?expected:int -> ?trace:Rs_obs.Trace.t -> pool:Rs_parallel.Pool.t -> mode -> Relation.t
  -> Relation.t
(** [dedup_relation_parallel ~pool mode r] returns a fresh relation with
    [r]'s distinct tuples — the engine's [dedup(R)] call (Algorithm 1,
    line 10). Tuples are inserted chunk-parallel through the worker pool:
    the paper's dedup table is one *global* table built for exactly this
    access pattern (Figure 5), so the engine's dedup step scales with
    cores. Output order is per-chunk first-occurrence. When [trace] is
    given the call records a ["dedup"] span named after [r] plus
    [dedup.probes] (input tuples) and [dedup.hits] (duplicates absorbed)
    counters. *)
