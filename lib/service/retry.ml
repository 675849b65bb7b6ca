type rung = Full | Half_workers | No_persistent_indexes | No_fast_path

let rung_name = function
  | Full -> "full"
  | Half_workers -> "half_workers"
  | No_persistent_indexes -> "no_persistent_indexes"
  | No_fast_path -> "no_fast_path"

let next_rung = function
  | Full -> Some Half_workers
  | Half_workers -> Some No_persistent_indexes
  | No_persistent_indexes -> Some No_fast_path
  | No_fast_path -> None

type knobs = { k_workers : int; k_persistent_indexes : bool; k_fast_path : bool }

(* The ladder is cumulative: each rung keeps every degradation above it, so
   the bottom rung is the smallest configuration the service will try before
   rejecting. *)
let knobs ~workers = function
  | Full -> { k_workers = workers; k_persistent_indexes = true; k_fast_path = true }
  | Half_workers ->
      { k_workers = max 1 (workers / 2); k_persistent_indexes = true; k_fast_path = true }
  | No_persistent_indexes ->
      { k_workers = max 1 (workers / 2); k_persistent_indexes = false; k_fast_path = true }
  | No_fast_path ->
      { k_workers = max 1 (workers / 2); k_persistent_indexes = false; k_fast_path = false }

type failure = Oom_failure | Fault_failure of Rs_chaos.Fault.cls

(* Which failures are worth another attempt. OOM is retryable because the
   ladder shrinks the working set (fewer workers → fewer concurrent
   fragments; no persistent indexes / no fast path → smaller resident
   structures). Transient injected faults (an aborted flush, a dead worker
   chunk, a failed table build) are retryable in place. Silent-corruption
   classes never surface as failures, and a timeout is final by definition:
   the deadline that killed attempt n has even less room for attempt n+1. *)
let retryable = function
  | Oom_failure -> true
  | Fault_failure (Rs_chaos.Fault.Txn | Crash | Dedup_fail | Index_fail) -> true
  (* Delta_abort fires at delta application, not query execution: the store
     rolls back atomically and the retry ladder has nothing to re-run.
     Kernel_fail is recovered inside the interpreter (fallback to the
     interpreted plan) and never surfaces as a failure here. *)
  | Fault_failure
      (Rs_chaos.Fault.Mem | Stall | Dedup_drop | Cache_corrupt | Delta_abort | Kernel_fail)
    -> false

type policy = { max_attempts : int; backoff_base_s : float; backoff_cap_s : float }

let policy ?(max_attempts = 4) ?(backoff_base_s = 1e-3) ?(backoff_cap_s = 0.25) () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts < 1";
  if backoff_base_s < 0.0 || backoff_cap_s < 0.0 then
    invalid_arg "Retry.policy: negative backoff";
  { max_attempts; backoff_base_s; backoff_cap_s }

let default = policy ()

(* Simulated seconds to wait before retry number [retry] (1-based):
   exponential, capped. Simulated time only — the wall clock never sleeps. *)
let backoff_s p ~retry =
  if retry < 1 then invalid_arg "Retry.backoff_s";
  min p.backoff_cap_s (p.backoff_base_s *. (2.0 ** float_of_int (retry - 1)))

type decision = Retry of { rung : rung; backoff_s : float } | Give_up

(* [attempt] is the 1-based number of the attempt that just failed at
   [rung]. OOM climbs down the ladder (same configuration again would meet
   the same wall); transient faults retry the same configuration. *)
let next p ~attempt ~rung failure =
  if (not (retryable failure)) || attempt >= p.max_attempts then Give_up
  else
    match failure with
    | Oom_failure -> (
        match next_rung rung with
        | None -> Give_up
        | Some r -> Retry { rung = r; backoff_s = backoff_s p ~retry:attempt })
    | Fault_failure _ -> Retry { rung; backoff_s = backoff_s p ~retry:attempt }
