(** Delta-sequence fuzzing: incremental maintenance vs recompute.

    Where {!Fuzz} diffs engines on a single evaluation, this mode diffs
    {e maintenance over time}: each generated case gets a random stream of
    typed insert/retract deltas ({!Rs_relation.Delta.t}), applied through
    the counting/DRed IVM ({!Recstep.Ivm}), and at {e every} version the
    maintained IDB state is compared against a from-scratch naive recompute
    on a set-level mirror of the EDB. The streams deliberately cover the
    retraction edge cases: retracting absent rows, retract-then-reinsert of
    a held row within one delta, and deletions that empty a relation.

    Every case also maintains a {e seeded twin}: a view whose recursive
    strata adopted an {!Recstep.Interpreter.run} fixpoint instead of
    bootstrapping ({!seeded_view}). At every version it must hold exactly
    the rows and the provenance-tagged rows of the bootstrapped view; a
    mismatch is reported as a divergence on predicate ["seeded " ^ pred].
    Deterministic per seed — the CI smoke pins one. *)

type divergence = {
  div_seed : int;  (** the case seed, for replay *)
  div_version : int;  (** 0 = bootstrap, k = after the k-th delta *)
  div_pred : string;
  div_missing : int list list;  (** oracle rows the IVM lost *)
  div_extra : int list list;  (** IVM rows the oracle refutes *)
}

type report = {
  seed : int;
  cases : int;
  invalid : int;  (** cases the naive oracle rejected at bootstrap *)
  versions : int;  (** deltas applied and checked, across all cases *)
  ops : int;  (** total insert/retract operations streamed *)
  divergences : divergence list;
}

val seeded_view :
  prov:Recstep.Provenance.t ->
  edb:(string * int list list) list ->
  Recstep.Ast.program ->
  Recstep.Ivm.t
(** [Ivm.create ~prov ~fixpoint] over the relations of an
    {!Recstep.Interpreter.run} of the program on [edb] (default options, a
    fresh pool). *)

val check_seeded :
  cseed:int -> version:int -> reference:Recstep.Ivm.t -> Recstep.Ivm.t -> divergence list
(** Per IDB of [reference], the rows and provenance-tagged rows the seeded
    view lacks ([div_missing]) or adds ([div_extra]). *)

val case_seed : seed:int -> int -> int
(** The derived per-case seed (the {!Gen.gen_case} input) for iteration
    [i]. *)

val run_case :
  cseed:int -> deltas:int -> Gen.case -> int * int * divergence list
(** Stream [deltas] random updates through one case, checking every version;
    returns (versions checked, ops streamed, divergences). Stops at the
    first diverging version. *)

val run :
  ?log:(string -> unit) -> seed:int -> iters:int -> ?deltas:int -> unit -> report
(** [iters] cases, [deltas] (default 8) versions each. *)

val clean : report -> bool

val report_json : report -> Rs_obs.Json.t
