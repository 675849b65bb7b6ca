(** Typed retry policy with a degradation ladder.

    The seed service had exactly one recovery move: on OOM, retry once at
    half the workers. This module generalizes it into a policy the chaos
    harness can exercise: per-failure-class retryability, exponential
    backoff in {e simulated} seconds, and a cumulative degradation ladder
    the service walks down before rejecting a query —

    {ol
    {- {!Full}: the configured workers, all optimizations on;}
    {- {!Half_workers}: half the workers (the seed's single move);}
    {- {!No_persistent_indexes}: also drop the cross-iteration join
       indexes;}
    {- {!No_fast_path}: also run with PBME and FAST-DEDUP off — the
       smallest-footprint configuration the engine has.}}

    OOM failures advance down the ladder (the same configuration would hit
    the same wall); transient injected faults (aborted flush, dead worker
    chunk, failed table build) retry the current rung. Timeouts are never
    retried: the deadline that ended attempt [n] has less room for attempt
    [n+1]. When attempts or rungs run out, {!next} says {!Give_up} and the
    caller reports the typed failure it last saw. *)

type rung = Full | Half_workers | No_persistent_indexes | No_fast_path

val rung_name : rung -> string

val next_rung : rung -> rung option
(** One step down the ladder; [None] below {!No_fast_path}. *)

type knobs = { k_workers : int; k_persistent_indexes : bool; k_fast_path : bool }
(** Concrete engine configuration at a rung. [k_fast_path] gates both PBME
    and FAST-DEDUP. *)

val knobs : workers:int -> rung -> knobs
(** Cumulative: every rung keeps the degradations of the rungs above it. *)

type failure = Oom_failure | Fault_failure of Rs_chaos.Fault.cls

val retryable : failure -> bool

type policy = {
  max_attempts : int;  (** total attempts including the first *)
  backoff_base_s : float;  (** simulated seconds before the first retry *)
  backoff_cap_s : float;  (** exponential growth is capped here *)
}

val policy :
  ?max_attempts:int -> ?backoff_base_s:float -> ?backoff_cap_s:float -> unit -> policy
(** Defaults: 4 attempts (one per rung), base 1 ms, cap 250 ms. *)

val default : policy

val backoff_s : policy -> retry:int -> float
(** Wait before retry number [retry] (1-based):
    [min cap (base * 2^(retry-1))]. Simulated time — nothing sleeps. *)

type decision = Retry of { rung : rung; backoff_s : float } | Give_up

val next : policy -> attempt:int -> rung:rung -> failure -> decision
(** [next p ~attempt ~rung f]: what to do after 1-based attempt [attempt]
    failed with [f] while running at [rung]. *)
