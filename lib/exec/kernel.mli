(** Compiled rule kernels: the fused join→project→dedup fast path.

    The interpreter's per-iteration loop issues one "SQL query" per delta
    plan, materializes the bag result, and deduplicates it in a separate
    pass — faithful to RecStep-over-QuickStep, but it pays the per-query
    dispatch overhead and an intermediate relation every iteration.
    "Making Formulog Fast" and the GPU Datalog work (PAPERS.md) both show
    what specialized, fused evaluation buys; this module reproduces that
    shape over the columnar substrate.

    {!compile} turns one delta plan of a hot recursive rule into a closure
    specification: a scan of the Δ-table (batched over the worker pool)
    probing the other side's index — acquired through the executor's
    three-tier policy, so recursive and EDB tables hit the persistent
    {!Index_manager} indexes — with head projection, FAST-DEDUP
    ({!Rs_relation.Dedup}) insertion and the semi-naive set difference
    fused into the probe loop. No intermediate relation is materialized,
    no query is issued and no separate OPSD/TPSD pass runs: the kernel's
    output is the iteration's Δ.

    Emit order: a surviving match is claimed with one two-table claim
    ({!Rs_relation.Dedup.claim2}): its packed key is hashed once, claimed
    in the dedup table and, when that claim is fresh, claimed in the head
    table R's membership set (a {!Rs_relation.Dedup.create_set} table of
    R's tuples). A tuple new to the set is written out. The set therefore
    already holds R's next rows when the Δ is absorbed, and the index
    manager appends nothing to it next iteration. Claiming in the dedup
    table first keeps the dedup figures those of the interpreted path's
    candidate bag: [dedup.probes] counts every match offered,
    [dedup.hits] the repeats, and [kernel.emitted] the fresh claims — the
    candidate set Rδ, a superset of the Δ by the tuples R already held.

    Supported shapes, each with the Δ-table scanned exactly once:
    - [Unary]: [Project] over a filtered scan of the Δ-table (linear
      single-atom rules);
    - [Binary]: [Join] of two (possibly filtered) scans, the Δ-table on
      one side;
    - [Chain]: a left-deep join of three or more filtered scans. The tree is
      flattened into atoms (each with its local filters and its offset in
      the combined frame) plus the equalities between frame columns. The
      Δ-atom drives; each remaining atom, in body order, joins as soon as it
      shares a variable with the atoms already bound, keyed on every one of
      its columns equated to a bound column (a variable shared by three
      atoms gives a 2-column key). Each atom's filters are tested at the
      step that binds it, the residual at emit. Every step's index comes
      from the same three-tier policy, acquired once per distinct
      (table, key columns) pair per run.
    Negation, aggregates and bodies where some atom shares no variable with
    the rest (["cross"]) return [Error reason] and stay interpreted;
    {!Cost.kernel_gate} screens out cold / aggregate / wide-headed rules
    before plans are even inspected. Specialization is monomorphic in head
    arity (1/2/3 fast paths, generic fallback) and probe-key shape (1/2
    column specializations).

    Row bounds: a [Binary] build side or a [Chain] step may be a
    {!Plan.constructor-Old} read, the rows of a recursive table before its
    Δ-suffix. It probes the table's index as a full scan would (the index
    is shared: acquisition is keyed on table and key columns only) and
    skips matches at rows from {!Executor.old_bound} on, before binding.

    Column-direct emit: when every head expression is a plain column,
    [Binary] (with no residual) reads the probe row's head columns once per
    probe row and the build row's straight from its columns, and [Chain]
    emits straight from its frame — no per-match accessor closure.
    Computed heads and residuals evaluate through {!Expr}.

    Chaos: both entry points probe {!Rs_chaos.Inject.kernel_should_fail}.
    A compile-time fire yields [Error "chaos"]; an exec-time fire raises
    {!Degraded} {e before any write} of that kernel, so the interpreter can
    always fall back to the interpreted plan — a kernel fault can cost
    time, never correctness. Earlier kernels of the same round may already
    have claimed tuples in the head table's set, so the fallback drops that
    set before its set difference. *)

exception Degraded of string
(** Raised by {!run} when an armed {!Rs_chaos.Fault.Kernel_fail} plan fires
    at [kernel.exec]. Guaranteed to be raised before the kernel writes to
    its dedup table, the head table's set or its output relation. *)

type t
(** A compiled kernel for one delta plan of one rule. *)

val arity : t -> int
(** Head arity — the width of the tuples the kernel emits. *)

val compile :
  Executor.t -> probe_table:string -> Plan.t -> (t, string) result
(** [compile ex ~probe_table plan] compiles [plan] into a fused kernel that
    scans [probe_table] (the rule's Δ-table for this plan) and probes the
    other atoms. [Error reason] (["shape"] / ["negation"] / ["aggregate"] /
    ["cross"] / ["probe"] / ["chaos"]) means the rule must stay on the
    interpreted path. Compilation never touches table contents — only the
    catalog's arities — so it is safe at stratum setup. *)

val run :
  Executor.t ->
  t ->
  dedup:Rs_relation.Dedup.t ->
  r_set:Rs_relation.Dedup.t ->
  out:Rs_relation.Relation.t ->
  int
(** [run ex k ~dedup ~r_set ~out] executes the kernel batch-at-a-time
    over the pool: every surviving match is claimed in [dedup], and a fresh
    claim is claimed in [r_set] — the membership set of every tuple of the
    head table — and appended to [out] iff [r_set] lacked it. [out] then
    holds [Rδ − R], the Δ, and [r_set] holds [R ∪ Δ]: it runs ahead of the
    head table until the caller absorbs the Δ, and a caller that does not
    absorb it (a later kernel of the same round degrades) must drop the
    set. Returns the number of fresh claims ([|Rδ|]), so [|Rδ| − |Δ|] is the
    intersection the DSD µ is made of. The caller owns [dedup], [r_set] and
    [out] (including {!Relation.account} and {!Rs_relation.Dedup.account}
    after the batch). Records
    [kernel.execs] / [kernel.fused_probes] / [kernel.emitted] (fresh
    claims) / [kernel.batches] / [kernel.batch_rows] on the executor's
    trace, and the table's [dedup.probes] (matches offered) /
    [dedup.hits] (offered minus fresh claims) — the same figures the
    interpreted path's dedup pass records for the same candidates. May
    raise {!Degraded} (chaos) — always before any write. A transient
    build-side index it acquires is released on every exit path, a worker
    crash included. *)
