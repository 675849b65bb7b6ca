(** Compiled rule kernels: the fused join→project→dedup fast path, and the
    chain loop every compiled evaluator in the repo runs.

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
    hit the persistent {!Index_manager} indexes), applies the [Old] row
    bounds and fetches every raw column array and
    {!Rs_relation.Hash_index.view} once. The chain loop ({!drive}) is the
    other half and knows nothing of the executor; the Souffle-like engine
    builds its own steps and runs the same loop. Per driver row the loop
    copies into the frame only the columns a later probe, test, anti-check
    or the head reads; a probe step walks its bucket chain inline (newest
    row first, a direct compare for 1-column keys), a scan step its rows
    in order, and leaf anti-checks look the frame's tuple up in a
    membership set before the residual. No closure is allocated per row or
    match: the one indirect call per surviving match is the emit. The raw
    arrays stay valid because nothing the loop reads grows while it runs.

    The kernel's emit is one two-table claim
    ({!Rs_relation.Dedup.claim2}): the packed key is hashed once, claimed
    in the dedup table and, when fresh, in the head table R's membership
    set; a tuple new to the set is written out. The set therefore already
    holds R's next rows when the Δ is absorbed. Claiming in the dedup table
    first keeps the dedup figures those of the interpreted path's candidate
    bag: [dedup.probes] counts every match offered, [dedup.hits] the
    repeats, and [kernel.emitted] the fresh claims — the candidate set Rδ,
    a superset of the Δ by the tuples R already held. Emission order is
    fixed: Δ rows ascending and, within each step, matches newest row
    first; the Δ's row order and every render that follows depend on it.

    Row bounds: a step may be a {!Plan.constructor-Old} read, the rows of a
    recursive table before its Δ-suffix. It probes the table's shared index
    and skips matches at rows from {!Executor.old_bound} on.

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
    set. [out] must not be a table the kernel reads (the interpreter passes
    a fresh one). Returns the number of fresh claims ([|Rδ|]), so
    [|Rδ| − |Δ|] is the intersection the DSD µ is made of. The caller owns
    [dedup], [r_set] and [out] (including {!Relation.account} and
    {!Rs_relation.Dedup.account} after the batch). Records [kernel.execs] /
    [kernel.fused_probes] / [kernel.emitted] (fresh claims) /
    [kernel.batches] / [kernel.batch_rows] on the executor's trace, and the
    table's [dedup.probes] (matches offered) / [dedup.hits] (offered minus
    fresh claims) — the figures the interpreted path's dedup pass records
    for the same candidates. May raise {!Degraded} (chaos) — always before
    any write. A transient build-side index it acquires is released on
    every exit path, a worker crash included. *)

(** {1 The chain loop} The caller resolves the steps and owns the frame;
    nothing the loop reads may grow while it runs. *)

type step
(** One atom of a chain, resolved: a probe of an index, or a scan. *)

val step :
  Rs_relation.Relation.t ->
  off:int ->
  at:int array ->
  preds:Expr.pred list ->
  bound:int ->
  probe:int array ->
  Rs_relation.Hash_index.view ->
  step
(** [step rel ~off ~at ~preds ~bound ~probe view] reads [rel]'s rows below
    [bound] and binds frame columns [at] (column [c - off] of [rel] fills
    frame column [c]), then tests [preds] over the frame. With [probe] (the
    frame columns of the key, in [view]'s key order) it walks [view]'s
    bucket chain; with [probe = \[||\]] it scans rows [\[0, bound)] and
    [view] is {!Rs_relation.Hash_index.empty_view}. *)

type anti

val anti : Rs_relation.Dedup.t -> int array -> anti
(** [anti set cols]: a negation. A match survives only if [set] lacks the
    tuple in frame columns [cols]. *)

type chain = {
  frame : int array;
  driver : step;  (** a scan step: {!drive} picks its rows *)
  steps : step array;  (** in binding order *)
  antis : anti array;  (** tested past the last step, before [residual] *)
  residual : Expr.pred list;
  emit : unit -> unit;  (** reads the head off [frame] *)
}

val drive : chain -> int -> int -> unit
(** [drive c lo hi] binds driver rows [\[lo, hi)] in order and, for each
    that passes the driver's preds, walks the steps: a probe step follows
    its bucket chain newest row first, a scan step its rows in order. The
    signature of a {!Rs_parallel.Pool.parallel_for} chunk. *)
