(** Latch-free concurrent CCK-GSCHT (paper Figure 5).

    The paper's deduplication table is a *global* separate-chaining hash
    table into which worker threads insert compact concatenated keys in
    parallel without latches: a bucket's chain head is updated with CAS, and
    on CAS failure the thread re-checks the newly prepended nodes before
    retrying (Figure 5's "conflict with memory contention" case).

    This module is the faithful concurrent implementation, built on OCaml 5
    [Atomic] and stress-tested with real [Domain]s in the test suite. The
    single-threaded engine path uses {!Dedup}, whose compact keys sit in one
    linear-probing table instead of chains; the tests check each against
    set semantics. Capacity is fixed at creation, mirroring the paper's
    pre-allocation from the optimizer's cardinality estimate. *)

type t

exception Capacity_exhausted of { capacity : int }
(** Raised by {!add} when the pre-allocated slot array is full — the
    optimizer's cardinality estimate was too small. The exception is typed
    (not a bare [Failure]) so the engine boundary
    ([Rs_engines.Engine_intf.guard]) can fold it into the [Oom] outcome:
    a hot dedup table overflowing must fail that one query, not the
    process serving it. *)

val create : capacity:int -> buckets:int -> t
(** [create ~capacity ~buckets] pre-allocates room for [capacity] keys and
    a power-of-two number of buckets of at least [buckets]. *)

val add : t -> int -> bool
(** [add t key] inserts the packed key; [true] iff it was new. Safe to call
    from multiple domains concurrently. Raises {!Capacity_exhausted} if the
    table is full. *)

val mem : t -> int -> bool

val cardinal : t -> int

val to_sorted_list : t -> int list
(** All keys, sorted (testing helper; call only after writers finish). *)
