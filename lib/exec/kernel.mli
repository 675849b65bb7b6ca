(** Compiled rule kernels: the fused join→project→dedup fast path over
    the {!Chain} loop.

    The interpreter's per-iteration loop issues one "SQL query" per delta
    plan, materializes the bag result and deduplicates it in a separate
    pass — faithful to RecStep-over-QuickStep, but it pays the per-query
    dispatch overhead and an intermediate relation every iteration.
    "Making Formulog Fast" and the GPU Datalog work (PAPERS.md) show what
    fused evaluation buys; this module reproduces that shape over the
    columnar substrate.

    {!compile} turns one delta plan of a hot recursive rule into a chain: a
    [Project] over a filtered scan, or a left-deep join of filtered scans,
    flattened into atoms (each with its local filters and its offset in the
    combined frame, the atoms' columns side by side in body order) plus the
    equalities between frame columns. The Δ-atom drives; each other atom,
    in body order, becomes a step as soon as it shares a variable with the
    atoms already bound, keyed on every one of its columns equated to a
    bound column (a second equality on a keyed column is tested). Filters
    are tested at the step that binds their atom, the residual at emit.
    RecStep's {!compile} still refuses negation (["negation"]) and bodies
    where some atom shares no variable with the rest (["cross"]), though
    the loop has steps for both; {!Cost.kernel_gate} screens out cold,
    aggregate and wide-headed rules before plans are inspected.

    {!run} has two halves. The resolve half is executor-aware: it looks up
    the tables, acquires each distinct (table, key columns) index once
    through the executor's three-tier policy (so recursive and EDB tables
    hit the persistent {!Index_manager} indexes), reads each atom's row
    range from the {!Catalog} and fetches every raw column array and
    {!Rs_relation.Hash_index.view} once; the other half is {!Chain.drive}.
    A step binds only the columns a later probe, test or the head reads.

    The kernel's emit is one two-table claim
    ({!Rs_relation.Dedup.claim2}): the packed key is hashed once, claimed
    in the dedup table and, when fresh, in the head table R's membership
    set; a tuple new to the set is written out. The set therefore already
    holds R's next rows, which the kernel appends to R itself, past the
    round-start rows: the absorb then only moves R's Δ range over them.
    Claiming in the dedup table
    first keeps the dedup figures those of the interpreted path's candidate
    bag: [dedup.probes] counts every match offered, [dedup.hits] the
    repeats, and [kernel.emitted] the fresh claims — the candidate set Rδ,
    a superset of the Δ by the tuples R already held. The Δ's row order
    is the chain's walk order.

    Row ranges: the driver is the {!Plan.constructor-Delta} atom, the rows
    [\[lo, hi)] of its table ({!Catalog.read}). A step reads rows
    [\[0, hi)] of its table, or [\[0, lo)] for a {!Plan.constructor-Old}
    read, the rows before the table's Δ. It probes the table's shared index
    and skips matches at rows from its bound on: the Δ, or rows an earlier
    kernel of the round appended.

    Chaos: both entry points probe {!Rs_chaos.Inject.kernel_should_fail}.
    A compile-time fire yields [Error "chaos"]; an exec-time fire raises
    {!Degraded} {e before any write} of that kernel, so the interpreter can
    always fall back to the interpreted plan — a kernel fault can cost
    time, never correctness. Earlier kernels of the same round may already
    have appended rows to the head table and claimed them in its set, so
    the fallback truncates the table back to its round-start rows, which
    invalidates that set, before its set difference. *)

exception Degraded of string
(** Raised by {!run} when an armed {!Rs_chaos.Fault.Kernel_fail} plan fires
    at [kernel.exec]. Guaranteed to be raised before the kernel writes to
    its dedup table, the head table's set or the head table. *)

type t
(** A compiled kernel for one delta plan of one rule. *)

val compile : Executor.t -> Plan.t -> (t, string) result
(** [compile ex plan] compiles [plan] into a fused kernel that scans the
    plan's one {!Plan.constructor-Delta} atom and probes the other atoms.
    [Error reason] (["shape"] / ["negation"] / ["cross"] /
    ["probe"] / ["chaos"]) means the rule must stay on the interpreted
    path. Compilation never touches table contents — only the
    catalog's arities — so it is safe at stratum setup. *)

val run :
  Executor.t ->
  t ->
  dedup:Rs_relation.Dedup.t ->
  r_set:Rs_relation.Dedup.t ->
  head:Rs_relation.Relation.t ->
  int
(** [run ex k ~dedup ~r_set ~head] executes the kernel batch-at-a-time
    over the pool: every surviving match is claimed in [dedup], and a fresh
    claim is claimed in [r_set] — the membership set of every tuple of the
    head table [head] — and appended to [head] iff [r_set] lacked it. The
    rows [head] gains past its round-start rows are then [Rδ − R], the Δ,
    and [r_set] holds exactly [head]'s rows. A caller that does not absorb
    them (a later kernel of the same round degrades) must truncate [head]
    back to its round-start rows. Returns the number of fresh claims
    ([|Rδ|]), so [|Rδ| − |Δ|] is the intersection the DSD µ is made of.
    The caller owns [dedup], [r_set] and [head] (including
    {!Relation.account} and {!Rs_relation.Dedup.account} after the batch).
    Records [kernel.execs] / [kernel.fused_probes] / [kernel.emitted]
    (fresh claims) / [kernel.batches] / [kernel.batch_rows] on the
    executor's trace, and the table's [dedup.probes] (matches offered) /
    [dedup.hits] (offered minus fresh claims) — the figures the interpreted
    path's dedup pass records for the same candidates. May raise
    {!Degraded} (chaos) — always before any write. A transient build-side
    index it acquires is released on every exit path, a worker crash
    included. *)
