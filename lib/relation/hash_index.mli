(** Multi-map hash index from key columns to row ids.

    The build side of every hash join in the executor and the compiled
    kernels — a join multimap only: membership questions (anti-joins, set
    difference, the kernels' claims) go to a {!Dedup.create_set} table
    instead. Chains are stored as 32-bit row ids in two [Bytes] buffers,
    which the collector does not scan: a bucket array of a power-of-two
    size at least the number of indexed rows (load factor <= 1, at least 16
    buckets) and one next-link per row, 4 bytes each, with -1 ending a
    chain. An index therefore covers at most {!max_rows} rows.

    An index covers rows [\[0, indexed_rows)] of its relation. When the
    relation only grows (the semi-naive recursive case: a full table
    absorbing its delta each iteration), {!append_pool} extends the index
    over the fresh suffix in one parallel pass with amortized doubling,
    instead of rebuilding from scratch — the maintenance discipline the
    executor's {!Rs_exec.Index_manager} relies on. The Souffle-like engine
    extends its indexes with the serial {!append} after every insert
    batch. *)

type t

val build : Relation.t -> int array -> t
(** [build r key_cols] indexes every row of [r] by the values of
    [key_cols]. The index holds a reference to [r]; [r] must not be
    destructively mutated while the index is in use (appends are fine — the
    index simply does not cover them until {!append_pool}). *)

val build_pool : Rs_parallel.Pool.t -> Relation.t -> int array -> t
(** Like {!build} but with the insertion pass chunked through the worker
    pool. Chain prepends commute up to per-bucket order; a real threaded
    build would use a CAS retry loop per bucket head (the latch-free table
    of the paper's Figure 5), so the pass is charged as parallel work. *)

val append_pool : Rs_parallel.Pool.t -> t -> int
(** [append_pool pool t] indexes the rows appended to the relation since the
    index was built or last appended ([\[indexed_rows, nrows)]), returning
    how many were added. A chain array that is full grows to the power of
    two at least the new row count (amortized doubling whose size depends
    only on the rows indexed, not on how the appends were spaced); when
    the load factor would exceed 1 (more rows than buckets) the bucket
    table grows to the bucket count a fresh {!build} would pick and every
    row is relinked (one {!rehashes} tick). Probe order — newest row first
    within a key — is identical to a fresh {!build} of the grown relation.
    Refreshes the recorded {!generation}. *)

val append : t -> int
(** {!append_pool} as one serial pass, for an engine that maintains its
    indexes as it inserts rather than in pool batches. Same growth, same
    probe order, same result; it probes no fault point. *)

val max_rows : int
(** [2^31]: the most rows an index covers, so that every row id fits a
    32-bit link. *)

val check_rows : int -> unit
(** [check_rows n] raises [Invalid_argument] if an index over [n] rows would
    link a row id above [2^31 - 1]. {!build}, {!build_pool}, {!append_pool}
    and {!append} call it on the relation's row count before they link or
    allocate anything. *)

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
    columns equal [key], newest row first. *)

type view = private {
  heads : Bytes.t;
      (** first row of each bucket's chain, or [-1]: bucket [b]'s 32-bit
          native-endian row id at byte offset [4 * b] *)
  nexts : Bytes.t;
      (** the next (older) row of a row's chain, or [-1]: row [r]'s link at
          byte offset [4 * r] *)
  mask : int;  (** bucket count minus one *)
  keys : int array array;
      (** the raw data of the indexed relation's key columns, in key order *)
}
(** The index's arrays for a probe loop that walks the bucket chains
    itself, with no closure per match: a probe key's chain starts at
    {!first1} / {!first}, follows [nexts] down to [-1], and holds every row
    whose key hashes to that bucket — the walker tests each row's key in
    [keys] and skips the others. The walker reads row [r]'s link with the
    [%caml_bytes_get32u] primitive, [Int32.to_int (get32 nexts (4 * r))]:
    one load per step, where a call into this module would cost a call per
    step. A view is read-only and stays valid until
    the index or its relation next grows ({!append_pool}, {!rebase}, any
    append to the relation): it is for a loop that writes neither. *)

val view : t -> view

val empty_view : view
(** A view whose every chain is empty: what a step that probes no index
    (a scan) carries. *)

val first1 : view -> int -> int
(** The head of the chain a one-column key hashes to. *)

val first : view -> int array -> int
(** The head of the chain [key] hashes to, any key width. *)

val bytes : t -> int
(** Footprint of the index buffers, 4 bytes per bucket and per link
    (excluding the indexed relation). *)

val account : t -> unit

val release : t -> unit
