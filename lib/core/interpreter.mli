(** The RecStep interpreter: semi-naive, stratified evaluation on the
    relational backend (paper Algorithm 1), with every optimization as a
    toggle so the ablation experiments (Figures 2 and 3) can turn each off:

    - [uie] — unified IDB evaluation: all subqueries of one IDB issued as a
      single UNION ALL query (off: one query per subquery, materialized
      temporaries, plus a final merge query);
    - [oof] — optimization on the fly: which statistics are refreshed per
      iteration ([`Normal] row counts of updated tables, [`Full] everything,
      [`Off] never);
    - [dsd] — dynamic set difference: per-iteration OPSD/TPSD choice by the
      Appendix-A cost model (or force one);
    - [eost] — evaluation as one single transaction: pend dirty-page I/O
      until the fixpoint (off: flush after every query);
    - [fast_dedup] — FAST-DEDUP, compact keys in one linear-probing
      table (off: boxed hash table);
    - [pbme] — bit-matrix kernels for TC/SG-shaped strata that fit in
      memory;
    - [compiled_kernels] — fused join→project→dedup closures
      ({!Rs_exec.Kernel}) for hot recursive rules (off: every delta plan
      goes through the query interpreter). *)

module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation

type oof_mode = Oof_off | Oof_normal | Oof_full

type dsd_mode = Dsd_dynamic | Dsd_force_opsd | Dsd_force_tpsd

type options = {
  uie : bool;
  oof : oof_mode;
  dsd : dsd_mode;
  eost : bool;
  fast_dedup : bool;
  pbme : bool;
  persistent_indexes : bool;
      (** maintain join indexes across queries and iterations in an
          {!Rs_exec.Index_manager} (EDB indexes built once, recursive full
          tables delta-appended); off = the seed's rebuild-per-query
          behavior, kept as an ablation toggle *)
  compiled_kernels : bool;
      (** compile hot recursive rules to fused join→project→dedup closures
          ({!Rs_exec.Kernel}): the Δ-scan probes persistent indexes and
          streams matches straight into FAST-DEDUP, skipping the per-query
          dispatch overhead and the intermediate bag. Rules the
          {!Rs_exec.Cost.kernel_gate} or the kernel compiler rejects
          (negation, aggregates, heads wider than 3, deep join trees) stay
          interpreted; results are identical either way *)
  shared_indexes : Rs_exec.Index_manager.t option;
      (** optional caller-owned parent manager: indexes on names its
          predicate accepts (typically the serving layer's EDB store
          relations) are built in and served from the parent, surviving
          this run's teardown — the run-local manager releases only its own
          entries *)
  query_overhead_s : float;
  timeout_vs : float option;  (** simulated-seconds budget per run *)
  hoard_memory : bool;
      (** keep per-iteration temporaries alive (models RDD-lineage caching in
          the BigDatalog-like baseline; always [false] for RecStep) *)
  share_builds : bool;
      (** share hash tables built on the same (table, keys) across the
          subqueries of one UNION ALL query — the cache-sharing half of UIE *)
  trace : Rs_obs.Trace.t option;
      (** observability sink: when set, the run records stratum/iteration
          spans, per-iteration delta cardinalities, DSD decision events with
          their cost-model inputs, and the storage/dedup/executor counters *)
  provenance : Provenance.t option;
      (** why-provenance sink: when set, every tuple absorbed into an IDB is
          tagged with its (stratum, iteration, sequence) at the single
          absorption point all evaluation paths share — interpreted plans,
          compiled kernels and the PBME solve produce identical tag
          coverage, and evaluation results are byte-identical with
          recording on or off (tags live beside the relations, never in
          them). Recording time is charged to the simulated clock.
          Sampling is the store's knob; see {!Provenance.create} *)
}

val options :
  ?uie:bool ->
  ?oof:oof_mode ->
  ?dsd:dsd_mode ->
  ?eost:bool ->
  ?fast_dedup:bool ->
  ?pbme:bool ->
  ?persistent_indexes:bool ->
  ?compiled_kernels:bool ->
  ?shared_indexes:Rs_exec.Index_manager.t ->
  ?query_overhead_s:float ->
  ?timeout_vs:float ->
  ?hoard_memory:bool ->
  ?share_builds:bool ->
  ?trace:Rs_obs.Trace.t ->
  ?provenance:Provenance.t ->
  unit ->
  options
(** Misuse-proof constructor: every omitted knob takes the RecStep default,
    so adding a knob never breaks call sites. Prefer this over building or
    updating the record field-by-field — literal construction is the form
    that breaks when options grow. *)

val default_options : options
(** [options ()] — everything on: the RecStep configuration. *)

(** One IDB's Δ after one round, as {!run} reports it to [on_iteration]
    and to the trace timeline: the trace's own record, so a note is passed
    on as it is. *)
type iteration_info = Rs_obs.Trace.iteration = {
  it_stratum : int;
  it_iteration : int;  (** 0 = the base round *)
  it_idb : string;
  it_delta_rows : int;  (** |Δ| after the round *)
  it_vtime : float;  (** simulated time of the note *)
}

type result = {
  outputs : (string * Relation.t) list;  (** declared outputs, or all IDBs *)
  relation_of : string -> Relation.t;  (** any relation by name, post-run *)
  iterations : int;  (** total fixpoint iterations across strata *)
  queries : int;  (** queries issued to the backend *)
  pbme_strata : int;  (** strata evaluated with the bit-matrix kernels *)
  io_bytes : int;  (** bytes physically flushed by the transaction manager *)
  dsd_choices : (Rs_exec.Cost.choice * int) list;  (** histogram *)
}

exception Timeout_simulated of float
(** {!Fixpoint.Timeout_simulated}: the simulated clock passed
    [timeout_vs]. *)

val run :
  ?options:options ->
  ?on_iteration:(iteration_info -> unit) ->
  pool:Pool.t ->
  edb:(string * Relation.t) list ->
  Ast.program ->
  result
(** Evaluates the program bottom-up to fixpoint. [edb] supplies every input
    relation by name. Raises [Analyzer.Analysis_error] on bad programs,
    {!Timeout_simulated} when the simulated clock passes [timeout_vs], and
    [Rs_storage.Memtrack.Simulated_oom] when the memory budget is
    exceeded — the two failure modes the paper reports for competing
    systems. *)
