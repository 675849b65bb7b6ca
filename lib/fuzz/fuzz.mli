(** The fuzz campaign driver: generate, diff, shrink, report.

    [run] draws [iters] seeded cases, diffs each across every runner
    (baseline engines + toggle matrix, unless a subset is given), shrinks
    the first diverging runner's case to a minimal reproducer, and returns
    the aggregate {!report}. The counters satisfy
    [runs_total = (cases - invalid) * n_runners] and
    [runs_total = runs_ok + runs_skipped + runs_diverged + runs_failed] —
    the identities the CI smoke asserts. *)

type divergence = {
  div_iter : int;
  div_seed : int;
  div_runner : string;
  div_mismatches : Differ.mismatch list;
  div_shrunk : Gen.case option;
      (** minimal reproducer; [None] for runners after the first diverging
          one on the same case (only the first is shrunk) *)
  div_why : string list;
      (** the offending rule chains, from the naive reference evaluator:
          for each mismatched tuple (capped per mismatch), either the full
          derivation the engine missed — rendered by {!Recstep.Explain} down
          to EDB leaves — or the verdict that no proof exists for a tuple it
          invented. Describes the shrunk reproducer when there is one. *)
}

type failure = { fail_iter : int; fail_seed : int; fail_runner : string; fail_msg : string }

type runner_runs = { runner : string; ok : int; skipped : int; diverged : int; failed : int }
(** One runner's dispositions over the campaign's valid cases. *)

type report = {
  seed : int;
  iters : int;
  n_runners : int;
  cases : int;
  invalid : int;
  runs_total : int;
  runs_ok : int;
  runs_skipped : int;
  runs_diverged : int;
  runs_failed : int;
  by_runner : runner_runs list;
      (** per runner, in runner order; their sums are the [runs_*] counters *)
  divergences : divergence list;
  failures : failure list;
}

val case_seed : seed:int -> int -> int
(** The derived per-case seed ([Gen.gen_case] input) for iteration [i]. *)

val run :
  ?log:(string -> unit) ->
  ?shrink:bool ->
  ?runners:Differ.runner list ->
  seed:int ->
  iters:int ->
  unit ->
  report

val dump_case : ?why:string list -> dir:string -> tag:string -> Gen.case -> string
(** Write [case<tag>.dl] plus one [.tsv] per EDB under [dir] (created if
    missing); the [.dl] header comments carry the replay command line and,
    with [why], one [% why:] line per chain line — a reproducer that states
    the offending rule chain instead of a bare diff. Returns the [.dl]
    path. *)

val why_of_case : Gen.case -> Differ.mismatch list -> string list
(** The self-explaining text for a diverging case: per mismatched tuple
    (capped), the reference derivation chain (missing) or the no-proof
    verdict (extra). [[]] if the reference evaluator rejects the case. *)

val dump_divergences : dir:string -> report -> string list
(** Dump every shrunk reproducer; returns the [.dl] paths. *)

val report_json : report -> Rs_obs.Json.t

val clean : report -> bool
(** No divergences and no failures. *)
