(** The query-serving loop: many tenants, one engine substrate.

    This module multiplexes a stream of submitted queries over the engines
    ([Rs_engines.Engine_intf.run_guarded]), the shared [Rs_parallel.Pool],
    the [Rs_storage.Memtrack] budget and [rs_obs] tracing, in {e simulated
    time}. Same events, seed and config ⇒ the same admissions, dispatch
    order, cache hits and outcomes (durations are simulated from measured
    execution, so float timings vary at microsecond scale run to run).

    {!run} is an event loop that only dispatches. A due event goes to its
    stage: admission ({!Admission}: EDB existence, queue bound, memory
    headroom), a delta, or an explain. A queued query, taken in tenant-fair
    order, gets one record (submission, dispatch time, canonical text and
    cache key, outcome, charged cost, cache hit, retries, final rung) and
    passes through its stages: the deadline check (the budget shrinks by
    the queue wait; an expired one is a {!Timeout} that reaches no engine),
    the result-cache lookup ({!Result_cache}, keyed by canonical program
    hash × EDB version), evaluation under the typed retry policy
    ({!Retry}: OOM walks down the degradation ladder, transient faults
    retry in place, with exponential backoff in simulated time), and the
    response. Results produced after the deadline or under a degraded rung
    are served but never cached. Every stage returns the simulated seconds
    it charged and the clock advances by them, so a served query's latency
    is its queue wait plus the sum of its stages' charges. Every completion
    is a typed {!outcome} — the engine vocabulary extended with [Fault] and
    [Rejected] — and the run yields a {!report} with the trace's
    [service.*] counters, latency percentiles and the [rs_obs] trace whose
    spans nest each engine run under its query. *)

module Trace = Rs_obs.Trace
module Json = Rs_obs.Json

type submission = {
  sub_id : string;
  tenant : string;
  program : Recstep.Ast.program;
  edb : string;  (** database name in the {!Edb_store} *)
  at : float;  (** arrival, simulated seconds *)
  deadline_vs : float option;  (** budget from arrival to completion *)
  mem : Admission.memclass;
  engine : string option;  (** engine name; [None] = RecStep *)
}

val submission :
  ?id:string ->
  ?at:float ->
  ?deadline_vs:float ->
  ?mem:Admission.memclass ->
  ?engine:string ->
  tenant:string ->
  edb:string ->
  Recstep.Ast.program ->
  submission
(** Defaults: auto id ("q1", "q2", ... in event order), arrival 0, no
    deadline, [Small], RecStep. *)

type explain_request = {
  ex_at : float;
  ex_tenant : string;
  ex_edb : string;
  ex_program : Recstep.Ast.program;
  ex_pred : string;
  ex_row : int list;
}

type event =
  | Submit of submission
  | Delta of { at : float; edb : string; delta : Rs_relation.Delta.t }
      (** A typed EDB update — inserts {e and retracts} — registered at a
          point in simulated time. Applied atomically through
          {!Edb_store.apply}; when it nets to a real change the service
          either incrementally refreshes that database's cached results
          through its maintained views (small deltas, supported programs)
          or drops them and lets queries recompute. *)
  | Explain of explain_request
      (** "Why is this fact here?" — answered from the tenant's maintained
          view when one exists (its tag store is kept current across
          deltas), otherwise by one provenance-enabled evaluation against
          the current store version. The resulting {!explanation} carries
          the full rule + premise chain to EDB leaves and, when the tenant
          has a completed query on that database, the latency + slowest
          trace spans of its latest one — the self-debugging join of
          derivation and timeline. *)

val event_time : event -> float

val delta_event : at:float -> edb:string -> Rs_relation.Delta.t -> event
(** Convenience constructor for {!Delta}. *)

val explain_event :
  ?at:float ->
  tenant:string ->
  edb:string ->
  pred:string ->
  row:int list ->
  Recstep.Ast.program ->
  event
(** Convenience constructor for {!Explain}. *)

type outcome =
  | Done of Result_cache.value  (** output name → sorted distinct rows *)
  | Oom  (** still over budget when the retry policy gave up *)
  | Timeout  (** per-query deadline missed (queue wait and backoff count) *)
  | Unsupported of string
  | Fault of { cls : Rs_chaos.Fault.cls; point : string }
      (** an injected fault survived the retry policy *)
  | Rejected of Admission.reason

val outcome_label : outcome -> string
(** "done" / "oom" / "timeout" / "unsupported" / "fault" / "rejected". *)

type completion = {
  c_id : string;
  c_tenant : string;
  c_edb : string;
  c_at : float;
  c_started : float option;  (** dispatch time; [None] if rejected *)
  c_finished : float;
  c_outcome : outcome;
  c_cache_hit : bool;
  c_retries : int;
  c_degraded : string option;
      (** {!Retry.rung_name} of the final attempt's rung when it ran below
          [Full]; [None] for an undegraded query *)
}

type config = {
  workers : int;
  queue_capacity : int;
  mem_budget : int option;  (** admission headroom + per-run OOM budget *)
  cache_bytes : int;  (** result-cache budget; 0 disables the cache *)
  cache_hit_cost_s : float;  (** simulated cost of serving from cache *)
  seed : int;  (** scheduler ring seed *)
  retry : Retry.policy;
  ivm : bool;  (** maintain views and refresh the cache across deltas *)
  ivm_max_delta : int;
      (** net delta size (ops) above which warm refresh falls back to
          invalidation — past this point recomputation tends to beat
          maintenance, and the view bootstrap cost stops amortizing *)
  kernels : bool;
      (** compiled rule kernels for engine-less submissions; the
          retry ladder's [No_fast_path] rung disables them together with the
          other fast-path structures *)
  autoscale : Autoscale.policy option;
      (** when set, an {!Autoscale} loop owns the base worker count and the
          cache byte budget: [workers]/[cache_bytes] become the initial
          sizes, and each completion feeds the scaler, which resizes within
          the policy's range from queue depth and windowed tail latency.
          The retry ladder composes — [Half_workers] halves the scaled
          count. [None] (the default) keeps the configured sizes fixed. *)
}

val config :
  ?workers:int ->
  ?queue_capacity:int ->
  ?mem_budget:int ->
  ?cache_bytes:int ->
  ?cache_hit_cost_s:float ->
  ?seed:int ->
  ?retry:Retry.policy ->
  ?ivm:bool ->
  ?ivm_max_delta:int ->
  ?kernels:bool ->
  ?autoscale:Autoscale.policy ->
  unit ->
  config
(** Defaults: 8 workers, queue capacity 64, no memory budget, 64 MiB cache,
    100 µs per cache hit, seed 1, {!Retry.default}, maintenance on with a
    512-op refresh threshold, compiled kernels on. *)

type latency_note = {
  ln_query : string;  (** the tenant's latest dispatched query on the EDB *)
  ln_outcome : string;
  ln_latency : float;  (** end-to-end, arrival to completion *)
  ln_spans : (string * float) list;
      (** up to three slowest trace spans nested under its service span,
          as ["kind:name"] with their simulated durations *)
}

type explanation = {
  x_at : float;  (** service clock when the request was processed *)
  x_tenant : string;
  x_edb : string;
  x_fact : string;  (** rendered goal, e.g. ["tc(1, 3)"] *)
  x_status : string;
      (** ["explained"] / ["absent"] / ["no_proof"] / ["budget"] /
          ["error"] *)
  x_rules : int list;  (** distinct 1-based rule indexes on the chain *)
  x_depth : int;
  x_from_view : bool;  (** answered from a maintained view's tag store *)
  x_text : string;  (** the rendered chain, or the failure report *)
  x_latency : latency_note option;
}

type report = {
  completions : completion list;  (** in completion order *)
  explanations : explanation list;  (** in request order *)
  counters : (string * int) list;  (** sorted by name, see below *)
  cache : Result_cache.stats;
  p50_latency : float;
      (** over {e all} served (Done) queries, degraded ones included —
          nearest-rank over the sorted latencies; 0 if none *)
  p95_latency : float;
  p99_latency : float;
  p999_latency : float;
  served_degraded : int;
      (** served (Done) completions whose final attempt ran below
          [Retry.Full] — part of the latency population above, split out so
          SLO accounting can flag them *)
  throughput : float;  (** served queries per simulated second *)
  vtime : float;  (** service clock when the last event settled *)
  trace : Trace.t;  (** service + nested engine spans, service counters *)
}
(** Counters: [submitted], [admitted], [rejected], [done], [oom],
    [timeout], [unsupported], [fault], [cache_hit], [cache_miss],
    [retried], [degraded], [deadline_miss], plus the delta-stream set:
    [delta_applied] (net store changes committed), [delta_noop] (deltas
    that normalized away), [delta_fault] (applies aborted by an injected
    fault or a memory probe, store rolled back), [refreshed] (cache entries
    incrementally re-keyed),
    [view_built], [view_dropped] (also counts views discarded because their
    maintenance raised — the warm path degrades to invalidation instead of
    surfacing the exception), [explain] (explain requests processed), plus
    the autoscaler set:
    [autoscale.evals] (windows evaluated), [autoscale.up]/[autoscale.down]
    (worker resizes applied) and [autoscale.cache_up]/[autoscale.cache_down]
    (cache-budget moves) — all zero when [config.autoscale] is [None]. Two
    identities hold by construction and
    are checked by the CI smoke: [submitted = admitted + rejected] and
    [admitted = done + oom + timeout + unsupported + fault]. The smoke also
    matches each outcome counter, [cache_hit], [retried] and [degraded]
    against the per-query list. *)

val run : ?config:config -> edb:Edb_store.t -> event list -> report
(** Replays [events] (sorted by {!event_time}, ties in list order) to
    quiescence. Mutates the store (deltas) and the global [Memtrack] budget
    during the run; the previous budget is restored on exit. *)

val counter : report -> string -> int
(** 0 when absent. *)

val report_json : report -> Json.t
(** The service report: {v
    {"version": 1, "vtime": _, "throughput": _,
     "latency": {"p50": _, "p95": _, "p99": _, "p999": _,
                 "served_degraded": _},
     "counters": {...}, "cache": {...},
     "queries": [{"id", "tenant", "edb", "at", "started", "finished",
                  "outcome", "cache_hit", "retries", "degraded",
                  "latency", ...}]} v} *)

val report_summary : report -> string
(** ASCII table of per-query dispositions plus the counter/latency lines. *)
