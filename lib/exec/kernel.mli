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

    A kernel runs in two halves, so that one pool batch can drive every
    kernel of a semi-naive round. {!resolve} is executor-aware: it probes
    the [kernel.exec] fault point, looks up the tables, acquires each
    distinct (table, key columns) index once through the executor's
    three-tier policy (so recursive and EDB tables hit the persistent
    {!Index_manager} indexes), reads each atom's row range from the
    {!Catalog} and fetches every raw column array and
    {!Rs_relation.Hash_index.view} once, then builds the frame and the
    emit; a step binds only the columns a later probe, test or the head
    reads. The drive half is {!range}'s chunk function, {!Chain.drive} over
    pool chunks of the Δ, and {!finish} records the run's counters after
    the batch. {!run} is the two halves over a batch of its own.

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
    and skips matches at rows from its bound on. When every kernel of a
    round is resolved before any of them runs, no index a step probes
    covers rows past the round start; a kernel resolved after an earlier
    one ran (two {!run} calls) may see an index extended over that
    kernel's appended rows, and skips them by the same bound.

    Chaos: both entry points probe {!Rs_chaos.Inject.kernel_should_fail}.
    A compile-time fire yields [Error "chaos"]; an exec-time fire raises
    {!Degraded} from {!resolve}, {e before any acquisition or write} of
    that kernel, so the interpreter can always fall back to the
    interpreted plan — a kernel fault can cost time, never correctness.
    The interpreter resolves every kernel of a round before the round's
    batch runs, so a degrade also comes before any {e other} kernel of the
    round has written: the head table still holds exactly its round-start
    rows and its membership set still covers exactly them. *)

exception Degraded of string
(** Raised by {!resolve} (and so {!run}) when an armed
    {!Rs_chaos.Fault.Kernel_fail} plan fires at [kernel.exec]. Guaranteed
    to be raised before the kernel acquires an index or writes to its
    dedup table, the head table's set or the head table. *)

type t
(** A compiled kernel for one delta plan of one rule. *)

val compile : Executor.t -> Plan.t -> (t, string) result
(** [compile ex plan] compiles [plan] into a fused kernel that scans the
    plan's one {!Plan.constructor-Delta} atom and probes the other atoms.
    [Error reason] (["shape"] / ["negation"] / ["cross"] /
    ["probe"] / ["chaos"]) means the rule must stay on the interpreted
    path. Compilation never touches table contents — only the
    catalog's arities — so it is safe at stratum setup. *)

type resolved
(** A kernel bound to its tables for one round: what {!resolve} acquired,
    the chunk function that drives it and its counts so far. *)

val resolve :
  Executor.t ->
  t ->
  dedup:Rs_relation.Dedup.t ->
  r_set:Rs_relation.Dedup.t ->
  head:Rs_relation.Relation.t ->
  resolved
(** [resolve ex k ~dedup ~r_set ~head] is the resolve half: it reads the
    catalog, acquires the step indexes and builds the chain whose emit
    claims every surviving match in [dedup] and a fresh claim in [r_set] —
    the membership set of every tuple of the head table [head] — and
    appends it to [head] iff [r_set] lacked it. Nothing is written until
    the chunk function of {!range} runs. May raise {!Degraded} (chaos)
    before acquiring anything; if an acquisition raises (an index fault, a
    simulated OOM), the indexes acquired before it are released. The
    caller owes {!release} on every exit path once [resolve] returns. *)

val range : resolved -> int * int * (int -> int -> unit)
(** [range rk] is [(lo, hi, f)]: the kernel's Δ rows and the chunk
    function that drives them, one {!Rs_parallel.Pool.batch} range. The
    caller runs it exactly once, in one batch, over all of [\[lo, hi)]. *)

val finish : resolved -> int
(** [finish rk], after the batch, records [kernel.execs] /
    [kernel.fused_probes] / [kernel.emitted] (fresh claims) /
    [kernel.batches] / [kernel.batch_rows] on the executor's trace, and
    the table's [dedup.probes] (matches offered) / [dedup.hits] (offered
    minus fresh claims) — the figures the interpreted path's dedup pass
    records for the same candidates. [kernel.batches] counts the kernel's
    pool chunks, not pool batches: a round that drives several kernels in
    one batch adds each kernel's chunks. Returns the number of fresh
    claims ([|Rδ|]), so [|Rδ| − |Δ|] is the intersection the DSD µ is
    made of. *)

val release : resolved -> unit
(** [release rk] releases the transient build-side indexes [rk] acquired;
    persistent ones stay with the {!Index_manager}. *)

val run :
  Executor.t ->
  t ->
  dedup:Rs_relation.Dedup.t ->
  r_set:Rs_relation.Dedup.t ->
  head:Rs_relation.Relation.t ->
  int
(** [run ex k ~dedup ~r_set ~head] is one kernel on its own: {!resolve},
    its {!range} as a pool batch of its own, {!finish}, and {!release} on
    every exit path, a worker crash included. The rows [head] gains past
    its round-start rows are then [Rδ − R], the Δ, and [r_set] holds
    exactly [head]'s rows. The caller owns [dedup], [r_set] and [head]
    (including {!Relation.account} and {!Rs_relation.Dedup.account} after
    the batch). Returns what {!finish} returns. *)
