(** Differential driver: one case, many engine configurations, one oracle.

    Each {!runner} evaluates a generated case and diffs every IDB's
    canonical rows against the naive reference evaluator
    ({!Recstep.Naive}). Runners cover the six registry engines (via
    {!Rs_engines.Engine_intf.run_guarded}) and the RecStep interpreter
    pinned to every point of the optimization-toggle matrix
    (persistent_indexes x dsd x pbme x dedup backend x compiled kernels —
    48 configurations).
    Programs outside a runner's fragment are {!Skipped}; any crash, OOM or
    timeout is {!Failed} (cases are tiny — those are bugs, not limits). *)

type mismatch = {
  pred : string;
  missing : int list list;  (** oracle rows the runner lost *)
  extra : int list list;  (** runner rows the oracle never derived *)
}

type verdict =
  | Agree
  | Skipped of string
  | Diverged of mismatch list
  | Failed of string

type oracle = { idbs : string list; rows_of : string -> int list list }

type runner = { rname : string; run : Gen.case -> oracle -> verdict }

val oracle_of_case : Gen.case -> oracle
(** Runs the naive evaluator; raises whatever it raises (analysis errors,
    unsupported features) — callers treat that as an invalid case. *)

val relations_of_case : Gen.case -> (string * Rs_relation.Relation.t) list
(** The case's EDB as accounted relations, one per declared input (arities
    recovered from the analyzer when the declaration omits them). Shared
    with the chaos harness, which loads them into an {!Rs_service.Edb_store}. *)

val engine_runner : Rs_engines.Engine_intf.engine -> runner

type toggles = {
  persistent_indexes : bool;
  dsd : Recstep.Interpreter.dsd_mode;
  pbme : bool;
  fast_dedup : bool;
  kernels : bool;  (** compiled rule kernels ({!Rs_exec.Kernel}) *)
}

val toggle_matrix : toggles list
(** The full 2 x 3 x 2 x 2 x 2 cross product — 48 configurations. *)

val toggle_label : toggles -> string

val toggle_runner : toggles -> runner

val all_runners : unit -> runner list
(** The registry engines (including stock RecStep) followed by the 96
    toggle-matrix configurations. *)

val diff_runner : runner -> Gen.case -> verdict
(** Convenience: build the oracle and run one runner; [Skipped] if the
    oracle itself rejects the case. *)

val diverges : runner -> Gen.case -> bool
(** The shrinker's check: does this runner still diverge on the case? *)
