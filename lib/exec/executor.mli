module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Dedup = Rs_relation.Dedup
(** Physical execution of logical plans — the parallel RDBMS backend.

    Plays QuickStep's role: each {!run_query} call is one "SQL query" issued
    by the Datalog interpreter. It pays a per-query dispatch overhead,
    optimizes joins with the catalog's (possibly stale) statistics, runs the
    operators chunk-parallel on the worker pool, and materializes a bag
    result ([UNION ALL] semantics — deduplication is the engine's separate
    [dedup] call, as in Algorithm 1).

    Every operator is one {!Chain}, driven chunk by chunk into fragments
    merged in chunk order: Filter, Project and row copies a bare driver, a
    join its probe side driving one step over the build side, an anti-join
    and the set differences' anti-probe a driver with one anti-check.
    Output rows come probe rows ascending, build rows newest first.

    Build-side indexes come from three tiers, cheapest first:
    - the {!Index_manager} (when attached): persistent indexes on
      named tables, reused across queries and delta-appended across fixpoint
      iterations — a join against a managed table costs only its probes;
    - the per-query [share_builds] cache: one build shared by the subplans
      of a UNION ALL (the cache-sharing effect of UIE);
    - a transient build, released when the operator finishes.

    Plan leaves read their tables in place, over the row range the
    {!Catalog} holds ({!Catalog.read}): a recursive IDB's full table and
    its rows before the Δ end where the round started, and its Δ is a row
    range of the same table. A join's build index covers a whole table and
    skips matches past the leaf's range; a Δ on the build side is indexed
    over its own rows, copied out when they do not start at row 0. A build
    side with no key columns gets no index: it is a scan step over the
    same rows.

    Joins probe a {!Hash_index}. Operators that only ask whether a tuple is
    present — anti-joins, both set differences and the kernels' claims
    into the head table's set — probe a membership set instead (a FAST-DEDUP table,
    {!Dedup.create_set}), acquired through the same three tiers. *)

type t = {
  pool : Rs_parallel.Pool.t;
  catalog : Catalog.t;
  query_overhead_s : float;
      (** modeled per-query dispatch cost (parse/plan/catalog bookkeeping) *)
  share_builds : bool;
      (** share hash tables built on the same (table, key) within one query —
          the cache-sharing benefit UIE unlocks (paper §5.1) *)
  index_manager : Index_manager.t option;
      (** when set, indexes on tables the manager deems persistent outlive
          the query; the manager owns and releases them *)
  trace : Rs_obs.Trace.t option;
      (** when set, each query records an ["executor"] span labelled with the
          top plan operator, counters (queries, est/actual rows, index
          builds/appends/reuse) and an estimated-vs-actual cardinality
          event *)
}

val create :
  ?query_overhead_s:float ->
  ?share_builds:bool ->
  ?index_manager:Index_manager.t ->
  ?trace:Rs_obs.Trace.t ->
  Rs_parallel.Pool.t ->
  Catalog.t ->
  t

val run_query : t -> Plan.t -> Relation.t
(** Executes one query. The result is a fresh materialized relation (not
    registered in the catalog). *)

val opsd : t -> ?name:string -> rdelta:Relation.t -> r:Relation.t -> unit -> Relation.t
(** One-phase set difference [Rδ − R] (Algorithm 4): hash table on [R],
    anti-probe with [Rδ]. Returns ΔR; [|Rδ| − |ΔR|] is the intersection
    the next iteration's µ is made of. The hash table is a membership set
    of [R]'s tuples. When [name] names a managed table, it persists across
    iterations and is delta-appended instead of rebuilt; a transient one is
    released on every exit path. *)

val tpsd : t -> ?name:string -> rdelta:Relation.t -> r:Relation.t -> unit -> Relation.t
(** Two-phase set difference (Algorithm 5): intersect first (building on the
    smaller input, or on [R]'s persistent set when [name] is managed —
    an already-built side is free), then [Rδ − r]. Both phases probe
    membership sets. Same result as {!opsd}. *)

val estimate : t -> Plan.t -> int
(** The optimizer's cardinality estimate for a plan under current catalog
    statistics. *)

(** {2 Index acquisition for compiled kernels}

    {!Kernel} probes build-side indexes and claims into the head table's
    membership set directly instead of issuing queries; it acquires them
    through the same policy as a join's build side (manager-persistent,
    else transient). *)

val acquire_index :
  t -> ?scan_name:string -> Relation.t -> int array -> Hash_index.t * bool
(** [acquire_index t ?scan_name rel keys] returns [(idx, owned)]. When
    [scan_name] names a table the {!Index_manager} deems persistent, the
    manager's index is returned and [owned] is [false] (the manager
    releases it); otherwise a transient index is built and [owned] is
    [true] — the caller must {!Hash_index.release} it. *)

val claim_set : t -> ?scan_name:string -> Relation.t -> int array -> Dedup.t * bool
(** [claim_set t ?scan_name rel keys] is {!acquire_index} for the
    membership set of [rel]'s rows projected on [keys] that the kernels
    will write to: the manager's persistent set taken with
    {!Index_manager.claim_set} ([owned = false]; the caller then owes the
    manager a {!Index_manager.cover_set} or {!Index_manager.drop_set}) or
    a transient one the caller must {!Dedup.release}. *)

