(** Chaos campaign: fault plans composed with the differential fuzzer.

    Each case pairs a generated program ({!Gen}) with a fault plan and runs
    it through the full serving stack ({!Rs_service.Service}: admission,
    result cache, typed retry/degradation). The oracle ({!Recstep.Naive})
    is computed {e outside} the chaos scope; the service runs {e inside}
    {!Rs_chaos.Inject.with_plan}. Two identical submissions per case drive
    the result cache through the plan, with a deterministic typed EDB delta
    (one retract + one insert, derived from the case seed) registered
    between them — so every plan also crosses the store's atomic apply and
    the cache's warm-refresh path.

    The guarantee asserted per case — the PR's recovery contract:

    - every submission either returns exactly the rows of a from-scratch
      recompute against the store's state at its arrival (the pre-delta
      oracle for the first, the store's final contents for the second) or
      ends in a {e typed} rejection (oom / timeout / unsupported / fault /
      rejected); wrong rows or an escaped exception is a violation;
    - the delta's disposition is consistent: applied, normalized away, or
      rolled back by an injected {!Rs_chaos.Fault.Delta_abort} — and the
      store's version and rows must agree with whichever happened;
    - [Memtrack] live bytes return to the pre-case baseline (net of the
      store's own byte drift from a committed delta): a faulted run may not
      leak its working set, its indexes or its scratch state.

    Without an explicit plan the campaign cycles a builtin rotation that
    covers every fault class — recovered single faults, unrecoverable
    storms, a silent stall, a corrupted cache entry, an aborted delta and
    compiled-kernel faults.
    Forcing [~plan:"dedup_drop:p=0.5"] is the harness's self-test: silent
    dedup corruption must produce violations (a campaign that stays green
    under it proves nothing). *)

type violation = {
  v_iter : int;
  v_seed : int;
  v_plan : string;
  v_msg : string;
  v_why : string list;
      (** for wrong-rows violations: per mismatched tuple (capped), the
          reference derivation chain the service lost or the no-proof
          verdict for a row it invented — computed against the EDB the
          submission actually ran on (post-delta store contents for the
          second submission). [[]] for non-row violations. *)
}

type case_result = {
  cr_iter : int;
  cr_seed : int;
  cr_plan : string;
  cr_fires : (Rs_chaos.Fault.cls * int) list;
  cr_outcomes : string list;  (** outcome label per submission *)
  cr_leak : int;  (** live bytes left behind by the case; must be 0 *)
  cr_ok : bool;  (** every submission correct or typed-rejected, no leak *)
}

type report = {
  seed : int;
  iters : int;
  plan : string option;  (** the forced plan, when the rotation was bypassed *)
  cases : int;
  invalid : int;  (** cases the oracle rejected; nothing was injected *)
  injected : (Rs_chaos.Fault.cls * int) list;  (** total fires by class *)
  outcomes : (string * int) list;  (** submission-outcome histogram *)
  recovered : int;
      (** cases where faults fired yet every submission was served correctly *)
  rejected_typed : int;  (** submissions that ended in a typed non-Done outcome *)
  leaks : int;  (** cases that left live bytes behind *)
  violations : violation list;
  case_results : case_result list;
}

val builtin_plans : string array
(** The default rotation, in plan syntax ({!Rs_chaos.Fault.plan_of_string}).
    [Mem] thresholds are relative to the pre-case live bytes. *)

val case_seed : seed:int -> int -> int
(** Same derivation as the fuzz campaign: case [i] of seed [s] is
    reproducible in isolation. *)

val run_case :
  iter:int ->
  cseed:int ->
  plan_str:string ->
  Gen.case ->
  Differ.oracle ->
  case_result * violation list
(** One case under one plan: oracle outside the chaos scope, two identical
    service submissions with the seed-derived delta between them inside it,
    version-consistency and leak checks afterwards. Exposed for the frozen
    chaos-corpus regression. *)

val run :
  ?log:(string -> unit) -> ?plan:string -> seed:int -> iters:int -> unit -> report
(** Runs [iters] cases. [plan] forces one plan string for every case
    instead of the builtin rotation. [log] receives one line per case. *)

val clean : report -> bool
(** No violations and no leaks — the campaign's pass/fail bit. *)

val report_json : report -> Rs_obs.Json.t
