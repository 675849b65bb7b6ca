(** Multi-map hash index from key columns to row ids.

    The build side of every hash join in the executor and the compiled
    kernels — a join multimap only: membership questions (anti-joins, set
    difference, the kernels' claims) go to a {!Dedup.create_set} table
    instead. Chains are stored in flat arrays (no boxing), matching the
    storage discipline of the rest of the backend: a bucket array of a
    power-of-two size at least the number of indexed rows (load factor
    <= 1, at least 16 buckets) and one next-link per row.

    An index covers rows [\[0, indexed_rows)] of its relation. When the
    relation only grows (the semi-naive recursive case: a full table
    absorbing its delta each iteration), {!append_pool} extends the index
    over the fresh suffix in one parallel pass with amortized doubling,
    instead of rebuilding from scratch — the maintenance discipline the
    executor's {!Rs_exec.Index_manager} relies on. *)

type t

val build : Relation.t -> int array -> t
(** [build r key_cols] indexes every row of [r] by the values of
    [key_cols]. The index holds a reference to [r]; [r] must not be
    destructively mutated while the index is in use (appends are fine — the
    index simply does not cover them until {!append_pool}). *)

val build_pool : Rs_parallel.Pool.t -> Relation.t -> int array -> t
(** Like {!build} but with the insertion pass chunked through the worker
    pool. Chain prepends commute up to per-bucket order; a real threaded
    build would use a CAS retry loop per bucket head (cf. Cck_concurrent),
    so the pass is charged as parallel work. *)

val append_pool : Rs_parallel.Pool.t -> t -> int
(** [append_pool pool t] indexes the rows appended to the relation since the
    index was built or last appended ([\[indexed_rows, nrows)]), returning
    how many were added. The chain array grows by amortized doubling; when
    the load factor would exceed 1 (more rows than buckets) the bucket
    table grows to the bucket count a fresh {!build} would pick and every
    row is relinked (one {!rehashes} tick). Probe order — newest row first
    within a key — is identical to a fresh {!build} of the grown relation.
    Refreshes the recorded {!generation}. *)

val rebase : t -> Relation.t -> unit
(** [rebase t rel] re-points the index at a {e replacement} relation whose
    prefix [\[0, indexed_rows t)] contains exactly the rows of the old
    relation, in order — the guarantee an order-preserving staged copy
    gives (e.g. [Edb_store.apply] with no retractions). Chains store row
    ids, so they remain valid verbatim; the index adopts [rel]'s
    generation, and a following {!append_pool} covers any appended suffix
    without a rebuild. Raises [Invalid_argument] if [rel]'s arity differs
    or it has fewer rows than are indexed. *)

val relation : t -> Relation.t

val key_cols : t -> int array

val indexed_rows : t -> int
(** Rows currently covered; equals [nrows (relation t)] right after
    {!build} / {!append_pool}. *)

val generation : t -> int
(** The relation's {!Relation.generation} when the index was last built or
    appended — the invalidation handle: if it differs from the live
    relation's generation the index is stale and must be rebuilt. *)

val rehashes : t -> int
(** Bucket-table doublings performed by {!append_pool} so far. *)

val iter_matches : t -> int array -> (int -> unit) -> unit
(** [iter_matches idx key f] calls [f row_id] for every indexed row whose key
    columns equal [key]. *)

val iter_matches2 : t -> int -> int -> (int -> unit) -> unit
(** Specialization for two-column keys. *)

val iter_matches1 : t -> int -> (int -> unit) -> unit
(** Specialization for one-column keys. *)

val nrows : t -> int

val bytes : t -> int
(** Footprint of the index arrays (excluding the indexed relation). *)

val account : t -> unit

val release : t -> unit
