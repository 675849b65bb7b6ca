(** Persistent, delta-maintained join indexes and membership sets with
    fixpoint lifetime.

    The dominant per-iteration cost of semi-naive evaluation is rebuilding
    hash tables for joins (the observation behind the paper's UIE sharing).
    This manager generalizes the executor's per-query [share_builds] cache to
    the lifetime of a whole interpreter run: indexes are keyed by
    [(table name, key columns)] and live across queries and iterations.

    - On {e stable} relations (EDBs, and lower-stratum IDB tables) the index
      is built once and every later access is a reuse hit.
    - On {e growing} relations (a recursive IDB's full table, which absorbs
      its delta each iteration) the index is extended over the appended
      suffix with {!Rs_relation.Hash_index.append_pool} — amortized-doubling
      delta maintenance instead of an O(|R|) rebuild per iteration.

    Invalidation is by identity and generation: an entry is reused only if
    the catalog still maps the name to the {e same} [Relation.t] (physical
    equality — [replace_table] churn on delta tables is caught here) {e and}
    the relation's {!Rs_relation.Relation.generation} is unchanged (clears
    and in-place rewrites bump it). Anything else rebuilds.

    Membership questions ("is this tuple in R?": the set differences, the
    kernels' claims, anti-joins) do not use a join index. They go to a
    {e membership set} ({!get_set}): a {!Rs_relation.Dedup.create_set}
    table of R's rows projected on the key columns. Sets are held by the
    same [(table name, key columns)] key in a table of their own, under the
    same validity rules; a grown relation's fresh suffix is added in one
    {!Rs_parallel.Pool.parallel_for} batch, charged as parallel work just
    as an index append is.

    Who writes R's full-column set: on interpreted strata the manager
    itself, appending each absorbed Δ at the next access. On compiled-kernel
    strata the kernels do: the interpreter takes the set with
    {!claim_set} (which probes [index_set.append] once per round, before
    the kernels' first claim), every fresh tuple a kernel emits is claimed
    in it, and after the absorb {!cover_set} records that it already holds
    the Δ — so the next round appends nothing. A round whose kernel
    degrades drops the set ({!drop_set}) before the interpreted fallback's
    set difference rebuilds it.

    The [persistent] predicate supplied at creation decides which table
    names are worth managing (the interpreter passes EDBs and
    non-aggregated IDB full tables; per-iteration delta tables are excluded
    because their backing relation changes identity every iteration).

    All index and set bytes are accounted against {!Rs_storage.Memtrack};
    the owner must call {!release_all} when the run ends. With a trace
    attached the manager counts its work, indexes and sets alike, in the
    [executor.index_builds], [executor.index_appends],
    [executor.index_reuse_hits], [executor.index_bytes] (at build),
    [executor.index_rebases] and [executor.index_invalidations] counters;
    [executor.index_rehashes] counts join-index bucket doublings only.

    Chaos: a set build probes {!Rs_chaos.Inject.index_should_fail} at
    [index_set.build] and a set append at [index_set.append] ({!claim_set}
    once per call), each before it writes anything. *)

type t

val create :
  ?trace:Rs_obs.Trace.t ->
  ?parent:t ->
  persistent:(string -> bool) ->
  Rs_parallel.Pool.t ->
  t
(** With [?parent], accesses to names the parent's predicate accepts are
    delegated to (and cached in) the parent, so those indexes outlive this
    manager's {!release_all} — the serving layer passes a store-lifetime
    manager here so base-relation indexes survive across interpreter runs
    and EDB deltas. *)

val eligible : t -> string -> bool
(** [eligible t name] is the [persistent] predicate: should accesses to
    [name] be routed through the manager? *)

val get : t -> name:string -> Rs_relation.Relation.t -> int array -> Rs_relation.Hash_index.t
(** [get t ~name rel keys] returns a valid index over all current rows of
    [rel], reusing / delta-appending / rebuilding as the invalidation rules
    dictate. The returned index is owned by the manager — callers must not
    release it. *)

val get_set : t -> name:string -> Rs_relation.Relation.t -> int array -> Rs_relation.Dedup.t
(** [get_set t ~name rel keys] returns a membership set of all current rows
    of [rel] projected on [keys], reusing / delta-appending / rebuilding
    under {!get}'s rules. Owned by the manager — callers must not release
    it. *)

val claim_set : t -> name:string -> Rs_relation.Relation.t -> int array -> Rs_relation.Dedup.t
(** [claim_set t ~name rel keys] is {!get_set} for a caller that will
    itself add [rel]'s next rows to the set — the compiled kernels, which
    claim every tuple they emit in the head table's set. It probes
    [index_set.append] exactly once, before any write: before the catch-up
    append of rows [rel] gained since the set last covered it, and before
    the caller's own claims. Until {!cover_set} the set holds rows [rel]
    lacks, so nothing else may probe it in between; a caller that ends up
    not appending those rows must {!drop_set} it. *)

val cover_set : t -> name:string -> Rs_relation.Relation.t -> int array -> unit
(** [cover_set t ~name rel keys] records that the set {!claim_set} handed
    out already holds every current row of [rel] (the caller appended its
    claimed rows to [rel]), so the next {!get_set} or {!claim_set} appends
    nothing. Reconciles the set's bytes with the memory tracker. A no-op
    when no valid set is held. *)

val drop_set : t -> name:string -> int array -> unit
(** [drop_set t ~name keys] releases and drops the set held under
    [(name, keys)] (counted as an invalidation); the next access rebuilds
    it from the relation's rows. *)

val peek_set :
  t -> name:string -> int array -> (Rs_relation.Relation.t * Rs_relation.Dedup.t) option
(** [peek_set t ~name keys] is the set held under [(name, keys)] and the
    relation it was taken over, as they stand: no validity check, no
    append, no counter. For invariant checks. *)

val build_set : Rs_parallel.Pool.t -> Rs_relation.Relation.t -> int array -> Rs_relation.Dedup.t
(** [build_set pool rel keys] is a transient membership set of [rel]'s rows
    projected on [keys], filled chunk-parallel and not yet accounted: the
    caller accounts and releases it. Probes [index_set.build] first. *)

val rebase_to : t -> name:string -> Rs_relation.Relation.t -> unit
(** [rebase_to t ~name rel] re-points every index and set held under
    [name] at the replacement relation [rel] ({!Rs_relation.Hash_index.rebase}
    for indexes) — valid when [rel]'s prefix preserves the old rows in
    order (an insert-only [Edb_store.apply]). Entries the rebase
    precondition rejects are dropped instead (counted as invalidations). *)

val invalidate : t -> name:string -> unit
(** Release and drop every index and set held under [name]; the next
    access rebuilds. For replacements that do {e not} preserve the covered
    prefix (retractions). *)

val bytes : t -> int
(** Accounted footprint of every index and set currently held (not the
    parent's) — lets an owner distinguish deliberate index growth from a
    leak. *)

val release_all : t -> unit
(** Return every managed index's and set's bytes to {!Rs_storage.Memtrack}
    and drop all entries ({e not} the parent's, if one was supplied). Call
    when the run ends (normally or by OOM/timeout). *)
